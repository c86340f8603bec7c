import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utcat import inclusion
from utcat.algebra_object import group_algebra_object
from utcat.annulus import build_annulus, z_state
from utcat.errors import NotAState, NotSemisimpleInput
from utcat.fixtures import fibonacci, ising, vec_zn
from utcat.inclusion import (
    BlockDecomposition,
    HilbertSpaceObject,
    RealizedCorrespondence,
    _intertwiner_space,
    _match_label,
    commutant_blocks,
    corrupt_correspondence,
    discreteness_report,
    gns_object,
    hom_count,
    ind_check,
    realize,
)


# -- reference solves: the SVD nullspace and center solve they replaced -------

def _svd_intertwiner_space(gens1, gens2, n1, n2):
    """Orthonormal basis of {X : X g₁ = g₂ X} from the stacked SVD."""
    rows = []
    for g1, g2 in zip(gens1, gens2):
        rows.append(np.kron(np.eye(n2), g1.T) - np.kron(g2, np.eye(n1)))
    A = np.concatenate(rows, axis=0)
    if A.shape[0] < A.shape[1]:
        A = np.concatenate([A, np.zeros((A.shape[1] - A.shape[0],
                                         A.shape[1]))], axis=0)
    _, s, Vh = np.linalg.svd(A, full_matrices=False)
    tol = 1e-10 * max(float(s[0]) if len(s) else 1.0, 1.0)
    rank = int(np.sum(s > tol))
    return Vh[rank:].conj().T


def _reference_center_basis(mats):
    """Basis of the center of span(mats), assuming it is an algebra."""
    eqs = []
    for Y in mats:
        eqs.append(np.stack([(X @ Y - Y @ X).reshape(-1) for X in mats],
                            axis=1))
    E = np.concatenate(eqs, axis=0)
    if E.shape[0] < E.shape[1]:
        E = np.concatenate([E, np.zeros((E.shape[1] - E.shape[0],
                                         E.shape[1]))], axis=0)
    _, s, Vh = np.linalg.svd(E, full_matrices=False)
    t = 1e-10 * max(float(s[0]) if len(s) else 1.0, 1.0)
    rank = int(np.sum(s > t))
    coeffs = Vh[rank:].conj().T
    return [sum(c[i] * mats[i] for i in range(len(mats)))
            for c in coeffs.T]


def _reference_commutant_blocks(corr, tol=1e-9):
    """The n²-form solver `commutant_blocks` replaced: one n²×n² intertwiner
    solve for the commutant, a star-closure test on its basis, then one
    averaged central element whose eigenvalue clusters are the blocks.
    It makes no link or form cut, so those margins are None."""
    n = corr.total_dim
    basis, null_gap = _intertwiner_space(corr.generators, corr.generators,
                                         n, n)
    dim_c = basis.shape[1]
    B = basis.T.reshape(dim_c, n, n)

    # star closure: every vec(B_i*) must stay inside the span
    V = B.conj().transpose(0, 2, 1).reshape(dim_c, n * n)
    resid = np.linalg.norm(V - (V @ basis.conj()) @ basis.T, axis=1)
    if np.max(resid, initial=0.0) > tol:
        raise NotSemisimpleInput(
            "commutant is not star-closed; data outside the ind class")

    Z = _central_element(B, tol)
    w, U = np.linalg.eigh(Z)
    # cluster eigenvalues into central components
    cuts = [i for i in range(1, n)
            if w[i] - w[i - 1] > 1e-6 * max(1.0, abs(w[i]))]
    groups = [slice(a, b) for a, b in zip([0] + cuts, cuts + [n]) if b > a]
    cluster_gap = (max((float(w[g.stop - 1] - w[g.start]) for g in groups),
                       default=None),
                   min((float(w[i] - w[i - 1]) for i in cuts), default=None))
    merged, used = {}, 0
    for sl in groups:
        cols = U[:, sl]
        # commutant compressed to this central component must be a full
        # matrix algebra M_h with h² = its dimension
        comp = (cols.conj().T @ B @ cols).reshape(dim_c, -1)
        r = np.linalg.matrix_rank(comp, tol=1e-8)
        h = int(round(np.sqrt(r)))
        if h * h != r:
            raise NotSemisimpleInput(
                f"central component of dimension {r} is not a matrix algebra")
        label = _match_label(corr, cols)
        merged[label] = merged.get(label, 0) + h
        used += r
    if used != dim_c:
        raise NotSemisimpleInput(
            f"block dimensions {used} do not exhaust the commutant {dim_c}")
    return BlockDecomposition(tuple(sorted(merged.items())), null_gap,
                              cluster_gap, (None, None), None)


def _central_element(B, tol) -> np.ndarray:
    """Z = Σ_i B_i Y B_i* for a seeded random self-adjoint Y in span(B).

    Central when span(B) is a *-algebra with HS-orthonormal basis B_i;
    raises NotSemisimpleInput when Z fails to commute with some B_i.
    """
    u, v = np.random.default_rng(0).normal(size=(2, len(B)))
    Y = np.tensordot(u + 1j * v, B, axes=1)
    Y = (Y + Y.conj().T) / 2
    Z = np.tensordot(B @ Y, B.conj(), axes=([0, 2], [0, 2]))
    worst = np.max(np.linalg.norm(Z @ B - B @ Z, axis=(1, 2)), initial=0.0)
    if worst > tol * max(float(np.linalg.norm(Z)), 1.0):
        raise NotSemisimpleInput(
            f"commutant is not an algebra: ‖[Z, B_i]‖ = {worst:.3e} for "
            f"the averaged element Z")
    return (Z + Z.conj().T) / 2


def _hom_inputs(dims1, dims2, base_dim, seed):
    """Aligned generator lists of two realizations with the same support."""
    c1 = realize(HilbertSpaceObject(dims1), base_dim,
                 np.random.default_rng(seed))
    c2 = realize(HilbertSpaceObject(dims2), base_dim,
                 np.random.default_rng(seed + 1))
    return c1.generators, c2.generators, c1.total_dim, c2.total_dim


def _self_inputs(corr):
    return corr.generators, corr.generators, corr.total_dim, corr.total_dim


NULLSPACE_CASES = {
    "planted": lambda: _self_inputs(realize(
        HilbertSpaceObject({"a": 3, "b": 2}), rng=np.random.default_rng(1))),
    "planted_base_dim_2": lambda: _self_inputs(realize(
        HilbertSpaceObject({"a": 2, "b": 1}), 2, np.random.default_rng(2))),
    "rectangular_hom": lambda: _hom_inputs({"a": 2, "b": 1},
                                           {"a": 1, "b": 3}, 1, 3),
    "rectangular_hom_base_dim_2": lambda: _hom_inputs({"a": 1, "b": 2},
                                                      {"a": 2, "b": 1}, 2, 4),
    "n1_zero": lambda: ([np.zeros((0, 0))] * 3,
                        realize(HilbertSpaceObject({"a": 2})).generators,
                        0, 2),
    "both_zero": lambda: _self_inputs(realize(HilbertSpaceObject({}))),
    "corrupted": lambda: _self_inputs(corrupt_correspondence(realize(
        HilbertSpaceObject({"a": 3, "b": 2}), rng=np.random.default_rng(5)))),
    "corrupted_base_dim_2": lambda: _self_inputs(corrupt_correspondence(
        realize(HilbertSpaceObject({"a": 2}), 2, np.random.default_rng(0)))),
}


@pytest.mark.parametrize("case", sorted(NULLSPACE_CASES))
def test_nullspace_projector_matches_svd_reference(case):
    g1, g2, n1, n2 = NULLSPACE_CASES[case]()
    basis, (dropped, kept) = _intertwiner_space(g1, g2, n1, n2)
    ref = _svd_intertwiner_space(g1, g2, n1, n2)
    assert basis.shape == ref.shape
    assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]),
                       atol=1e-12)
    diff = basis @ basis.conj().T - ref @ ref.conj().T
    assert np.max(np.abs(diff), initial=0.0) < 1e-10
    if n1 * n2:
        assert dropped is None or dropped < 1e-12
        assert kept is None or kept > 1e-2


@pytest.mark.parametrize("dims,base_dim", [({"a": 3, "b": 2}, 1),
                                           ({"a": 2, "b": 1, "c": 1}, 1),
                                           ({"a": 2, "b": 1}, 2)])
def test_central_element_lies_in_the_reference_center(dims, base_dim):
    corr = realize(HilbertSpaceObject(dims), base_dim,
                   np.random.default_rng(8))
    n = corr.total_dim
    basis, _ = _intertwiner_space(*_self_inputs(corr))
    B = basis.T.reshape(-1, n, n)
    Z = _central_element(B, 1e-9)
    center = _reference_center_basis(list(B))
    assert len(center) == len(dims)
    C = np.stack([c.reshape(-1) for c in center], axis=1)
    coef = np.linalg.lstsq(C, Z.reshape(-1), rcond=None)[0]
    assert np.max(np.abs(C @ coef - Z.reshape(-1))) < 1e-10
    # one distinct eigenvalue per central component
    w = np.linalg.eigvalsh(Z)
    assert int(np.sum(np.diff(w) > 1e-6)) + 1 == len(dims)


def test_central_element_refuses_a_span_that_is_not_an_algebra():
    # span{A, A*} is star-closed but not closed under products
    rng = np.random.default_rng(4)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Q, _ = np.linalg.qr(np.stack([A.reshape(-1), A.conj().T.reshape(-1)],
                                 axis=1))
    with pytest.raises(NotSemisimpleInput, match="not an algebra"):
        _central_element(Q.T.reshape(2, 4, 4), 1e-9)


def test_hilbert_space_object_drops_zeros_and_rejects_negatives():
    h = HilbertSpaceObject({"1": 0, "tau": 3})
    assert h.dims == {"tau": 3} and h.total() == 3
    with pytest.raises(ValueError):
        HilbertSpaceObject({"tau": -1})


def test_realize_single_block():
    corr = realize(HilbertSpaceObject({"tau": 3}))
    assert corr.total_dim == 3
    assert corr.graded_dims() == {"tau": 3}
    bd = commutant_blocks(corr)
    assert bd.blocks == (("tau", 3),) and bd.commutant_dim == 9


def test_realize_base_algebra_itself():
    # ℋ = δ_1 realizes to A with commutant Z(A) = ℂ
    for k in (1, 2):
        corr = realize(HilbertSpaceObject({"1": 1}), base_dim=k)
        bd = commutant_blocks(corr)
        assert bd.blocks == (("1", 1),)


def test_projections_resolve_identity():
    corr = realize(HilbertSpaceObject({"a": 2, "b": 1}), base_dim=2,
                   rng=np.random.default_rng(3))
    total = sum(corr.projections.values())
    assert np.max(np.abs(total - np.eye(corr.total_dim))) < 1e-12


def test_two_block_commutant():
    # K₁⊗ℂ² ⊕ K₂⊗ℂ → commutant M₂ ⊕ ℂ
    corr = realize(HilbertSpaceObject({"K1": 2, "K2": 1}),
                   rng=np.random.default_rng(7))
    bd = commutant_blocks(corr)
    assert bd.dims() == {"K1": 2, "K2": 1} and bd.commutant_dim == 5


@pytest.mark.parametrize("seed", range(10))
def test_randomized_recovery(seed):
    rng = np.random.default_rng(seed)
    nlab = rng.integers(1, 5)
    dims = {f"K{i}": int(rng.integers(1, 6)) for i in range(nlab)}
    h = HilbertSpaceObject(dims)
    corr = realize(h, rng=rng)
    assert commutant_blocks(corr).dims() == h.dims
    assert ind_check(corr)["verdict"] == "IND"


@pytest.mark.parametrize("base_dim,dims", [
    (2, {"a": 2, "b": 1}),
    (2, {"a": 1, "b": 3, "c": 1}),
    (3, {"a": 2, "b": 1}),
    (3, {"a": 1, "b": 1, "c": 1}),
])
@pytest.mark.parametrize("seed", range(2))
def test_scrambled_recovery_at_base_dim(base_dim, dims, seed):
    h = HilbertSpaceObject(dims)
    corr = realize(h, base_dim, np.random.default_rng(seed))
    bd = commutant_blocks(corr)
    assert bd.dims() == h.dims
    verdict = ind_check(corr)
    assert verdict["verdict"] == "IND"
    assert verdict["blocks"].null_gap == bd.null_gap


def test_rank_cut_gaps_are_reported():
    corr = realize(HilbertSpaceObject({"a": 3, "b": 2}),
                   rng=np.random.default_rng(1))
    bd = commutant_blocks(corr)
    dropped, kept = bd.null_gap
    assert dropped < 1e-12 and kept > 1.0
    spread, gap = bd.cluster_gap
    assert spread < 1e-12 and gap > 1e-3
    single = commutant_blocks(realize(HilbertSpaceObject({"a": 2})))
    assert single.cluster_gap[1] is None


def test_empty_correspondence_gets_a_verdict():
    # the ΣP_K = id check used to reduce over a zero-size array
    corr = realize(HilbertSpaceObject({}))
    assert commutant_blocks(corr).dims() == {}
    verdict = ind_check(corr)
    assert verdict["verdict"] == "IND" and verdict["obstruction"] is None
    assert verdict["blocks"].dims() == {}


def test_no_generators_leave_all_of_m_n():
    # nothing acts, so the commutant is M_n; the intertwiner solve used to
    # reshape the empty generator stack and fail
    one = RealizedCorrespondence(HilbertSpaceObject({"a": 3}), 1, [],
                                 {"a": np.eye(3)}, 3)
    blocks = commutant_blocks(one)
    assert blocks.blocks == (("a", 3),) and blocks.commutant_dim == 9
    assert ind_check(one)["verdict"] == "IND"
    # two labels whose projections do not act: M_3 is not M_2 ⊕ M_1
    two = realize(HilbertSpaceObject({"a": 2, "b": 1}), 1,
                  np.random.default_rng(0))
    two.generators = []
    blocks = commutant_blocks(two)
    assert blocks.blocks == ((None, 3),) and blocks.commutant_dim == 9
    verdict = ind_check(two)
    assert verdict["verdict"] == "NOT-IND"
    assert "graded dimensions" in verdict["obstruction"]


def test_hom_count_oracles():
    h1 = HilbertSpaceObject({"a": 2, "b": 3})
    assert hom_count(h1, h1, cross_check=True) == 13
    d1 = HilbertSpaceObject({"1": 1})
    assert hom_count(d1, d1, cross_check=True) == 1
    disjoint = HilbertSpaceObject({"c": 4})
    assert hom_count(h1, disjoint, cross_check=True) == 0
    mixed = HilbertSpaceObject({"a": 1, "c": 2})
    assert hom_count(h1, mixed, cross_check=True) == 2


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_hom_count_matches_solve(a1, b1, a2, b2):
    h1 = HilbertSpaceObject({"a": a1, "b": b1})
    h2 = HilbertSpaceObject({"a": a2, "b": b2})
    # cross_check raises if the Schur count and the explicit solve disagree
    assert hom_count(h1, h2, cross_check=True) == a1 * a2 + b1 * b2


def test_realize_is_tensor_compatible():
    rng = np.random.default_rng(11)
    fib = fibonacci()
    for _ in range(5):
        h1 = HilbertSpaceObject({X: int(rng.integers(0, 4))
                                 for X in fib.ring.labels})
        h2 = HilbertSpaceObject({X: int(rng.integers(0, 4))
                                 for X in fib.ring.labels})
        if not h1.dims or not h2.dims:
            continue
        # (ℋ₁⊠ℋ₂)(K) = Σ N(K₁,K₂;K)·h₁(K₁)·h₂(K₂), the fusion product
        prod = HilbertSpaceObject({K: sum(fib.ring.N(K1, K2, K) * a * b
                                          for K1, a in h1.dims.items()
                                          for K2, b in h2.dims.items())
                                   for K in fib.ring.labels})
        assert realize(prod).graded_dims() == prod.dims


def test_corrupted_correspondence_is_not_ind():
    corr = realize(HilbertSpaceObject({"a": 3, "b": 2}),
                   rng=np.random.default_rng(5))
    bad = corrupt_correspondence(corr)
    with pytest.raises(NotSemisimpleInput):
        commutant_blocks(bad)
    verdict = ind_check(bad)
    assert verdict["verdict"] == "NOT-IND"
    assert "star-closed" in verdict["obstruction"]


@pytest.mark.parametrize("dims", [{"a": 2}, {"a": 3, "b": 2}])
@pytest.mark.parametrize("seed", range(3))
def test_corrupted_correspondence_at_base_dim_2_is_not_ind(dims, seed):
    # the Jordan block sits in an arbitrary basis of P_K, not on the
    # multiplicity factor, so the commutant shrinks but stays star-closed
    corr = realize(HilbertSpaceObject(dims), base_dim=2,
                   rng=np.random.default_rng(seed))
    verdict = ind_check(corrupt_correspondence(corr))
    assert verdict["verdict"] == "NOT-IND"
    assert verdict["blocks"].dims() != corr.graded_dims()
    assert "graded dimensions" in verdict["obstruction"]


def test_corrupt_needs_multiplicity():
    corr = realize(HilbertSpaceObject({"a": 1}))
    with pytest.raises(ValueError):
        corrupt_correspondence(corr)


# -- the decomposition solver against the n²-form reference ------------------

SOLVERS = {"decomposition": commutant_blocks,
           "reference": _reference_commutant_blocks}


def _planted(seed):
    rng = np.random.default_rng(seed)
    nlab = int(rng.integers(1, 5))
    dims = {f"K{i}": int(rng.integers(1, 6)) for i in range(nlab)}
    return realize(HilbertSpaceObject(dims), rng=rng)


# case → (function making the correspondence, obstruction class of its
# verdict or None)
PARITY_CASES = {f"planted_{seed}": (lambda seed=seed: _planted(seed), None)
                for seed in range(100, 110)}
for _k, _dims in [(2, {"a": 2, "b": 1}), (2, {"a": 1, "b": 3, "c": 1}),
                  (3, {"a": 2, "b": 1}), (3, {"a": 1, "b": 1, "c": 1})]:
    PARITY_CASES[f"scrambled_k{_k}_{len(_dims)}_labels"] = (
        lambda k=_k, dims=_dims: realize(HilbertSpaceObject(dims), k,
                                         np.random.default_rng(9)), None)
for _k, _cls in [(1, "star-closed"), (2, "graded dimensions")]:
    for _seed in range(5):
        PARITY_CASES[f"corrupted_k{_k}_seed{_seed}"] = (
            lambda k=_k, seed=_seed: corrupt_correspondence(realize(
                HilbertSpaceObject({"a": 3, "b": 2}), k,
                np.random.default_rng(seed))), _cls)


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_blocks_and_verdicts_match_the_reference(case, monkeypatch):
    build, obstruction = PARITY_CASES[case]
    corr = build()
    new = ind_check(corr)
    with monkeypatch.context() as patched:
        patched.setattr(inclusion, "commutant_blocks",
                        _reference_commutant_blocks)
        old = ind_check(corr)
    assert new["verdict"] == old["verdict"]
    assert (new["blocks"] is None) == (old["blocks"] is None)
    if new["blocks"] is not None:
        assert new["blocks"].blocks == old["blocks"].blocks
    if obstruction is None:
        assert new["verdict"] == "IND"
        assert new["blocks"].dims() == corr.hobj.dims
    else:
        assert obstruction in new["obstruction"]
        assert obstruction in old["obstruction"]


_PAULI = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]))


def _clifford(r, m, seed=0):
    """The 2r Jordan–Wigner generators Z⊗…⊗Z⊗{X, Y}⊗1⊗…⊗1 of the
    Clifford algebra M_{2^r}, with multiplicity m, in a Haar-random basis:
    the commutant is M_m."""
    Z = np.diag([1.0, -1.0])
    gens = []
    for i in range(r):
        for P in _PAULI:
            g = np.eye(m)
            for f in [Z] * i + [P] + [np.eye(2)] * (r - i - 1):
                g = np.kron(f, g)
            gens.append(g)
    n = m * 2 ** r
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n))
                        + 1j * rng.normal(size=(n, n)))
    gens = [Q @ g @ Q.conj().T for g in gens]
    return RealizedCorrespondence(HilbertSpaceObject({"a": m}), 1, gens,
                                  {"a": np.eye(n)}, n)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("m", (1, 2))
def test_clifford_generators_are_decomposed(solver, m):
    # every Hermitian element of span{X⊗1, Y⊗1, Z⊗X, Z⊗Y} has doubly
    # degenerate eigenvalues, so an element taken from the span alone
    # refuses this irreducible algebra
    assert SOLVERS[solver](_clifford(2, m)).dims() == {"a": m}


@pytest.mark.parametrize("r", (3, 4, 5))
def test_clifford_algebras_that_need_longer_words(r):
    # 2r anticommuting generators need words of length r before the
    # generic element has a simple spectrum
    bd = commutant_blocks(_clifford(r, 1))
    assert bd.dims() == {"a": 1}
    assert bd.form_residual < 1e-12


@pytest.mark.parametrize("solver", sorted(SOLVERS))
@pytest.mark.parametrize("seed", range(3))
def test_similarity_linked_set_that_is_not_star_closed_is_refused(solver,
                                                                  seed):
    # diag(J, T J T⁻¹) with T not unitary: the commutant holds the
    # intertwiners q(J)·T⁻¹ across the two components but not their
    # adjoints
    rng = np.random.default_rng(seed)
    J = np.diag(np.ones(2), 1)
    T = rng.normal(size=(3, 3)) + 3 * np.eye(3)
    A = np.zeros((6, 6))
    A[:3, :3], A[3:, 3:] = J, T @ J @ np.linalg.inv(T)
    P = {"a": np.diag([1.0] * 3 + [0.0] * 3),
         "b": np.diag([0.0] * 3 + [1.0] * 3)}
    corr = RealizedCorrespondence(HilbertSpaceObject({"a": 3, "b": 3}), 1,
                                  [np.eye(6), A], P, 6)
    with pytest.raises(NotSemisimpleInput, match="star-closed"):
        SOLVERS[solver](corr)


@pytest.mark.parametrize("solver", sorted(SOLVERS))
def test_projection_only_generators_give_whole_label_blocks(solver):
    # the solver is blind to which generators are projections: with the
    # matrix units dropped, each label's k²·h_K block is one matrix block
    corr = realize(HilbertSpaceObject({"a": 2, "b": 1, "c": 3}), 2,
                   np.random.default_rng(4))
    only = RealizedCorrespondence(corr.hobj, 2,
                                  list(corr.projections.values()),
                                  corr.projections, corr.total_dim)
    assert SOLVERS[solver](only).dims() == {"a": 8, "b": 4, "c": 12}


def test_link_and_form_margins_are_reported():
    corr = realize(HilbertSpaceObject({"a": 2, "b": 1}), 2,
                   np.random.default_rng(3))
    bd = commutant_blocks(corr)
    unlinked, linked = bd.link_gap
    assert unlinked < 1e-12 and linked > 1e-3
    assert bd.form_residual < 1e-12
    # one cluster per label at base dimension 1: nothing links
    two = commutant_blocks(realize(HilbertSpaceObject({"a": 3, "b": 2}),
                                   rng=np.random.default_rng(1)))
    assert two.link_gap[0] < 1e-12 and two.link_gap[1] is None
    single = commutant_blocks(realize(HilbertSpaceObject({"a": 2})))
    assert single.link_gap == (None, None)


# -- GNS objects --------------------------------------------------------------

def test_gns_group_object_faithful_state():
    ga = group_algebra_object(vec_zn(3))
    h, cuts = gns_object(ga, np.array([1.0]))
    assert h.dims == {"g0": 1, "g1": 1, "g2": 1}
    assert all(c.factor.shape == (1, 1) for c in cuts.values())


def test_gns_character_state_kills_a_summand():
    ann = build_annulus(vec_zn(2))
    h_trace, _ = gns_object(ann, np.array([1.0, 0.0]))
    assert h_trace.dims == {"g0": 2}
    h_char, _ = gns_object(ann, np.array([1.0, 1.0]))
    assert h_char.dims == {"g0": 1}


def test_gns_rejects_non_states():
    ann = build_annulus(vec_zn(2))
    with pytest.raises(NotAState):
        gns_object(ann, np.array([2.0, 0.0]))
    with pytest.raises(NotAState):
        gns_object(ann, np.array([1.0, 3.0]))


# -- discreteness -------------------------------------------------------------

ALL_BRAIDED = {
    "fib": fibonacci,
    "ising": ising,
    "vec_z2": lambda: vec_zn(2),
    "vec_z3": lambda: vec_zn(3),
}


@pytest.mark.parametrize("name", sorted(ALL_BRAIDED))
def test_discreteness_chain_on_annulus_fixtures(name):
    ann = build_annulus(ALL_BRAIDED[name]())
    omega = z_state(ann)["omega"]
    rep = discreteness_report(ann, omega)
    assert rep["chain_ok"]
    assert rep["discrete"] and rep["pqr"] and rep["ind"]


def test_discreteness_report_solves_no_planted_commutant(monkeypatch):
    # the flags are stated at finite support: no correspondence is built
    # and no commutant is solved
    ann = build_annulus(fibonacci())
    omegas = (z_state(ann)["omega"], ann.ground().weights)

    def refuse(*args, **kwargs):
        raise AssertionError("planted commutant solve")

    for name in ("realize", "ind_check", "commutant_blocks"):
        monkeypatch.setattr(inclusion, name, refuse)
    for omega in omegas:
        rep = discreteness_report(ann, omega)
        assert rep["discrete"] and rep["pqr"] and rep["ind"] and rep["chain_ok"]
        assert rep["gns_dims"] == gns_object(ann, omega)[0].dims


def test_discreteness_chain_on_group_objects():
    for n in (2, 3, 5):
        ga = group_algebra_object(vec_zn(n))
        rep = discreteness_report(ga, np.array([1.0]))
        assert rep["discrete"] and rep["pqr"] and rep["ind"]
        assert rep["gns_dims"] == {f"g{k}": 1 for k in range(n)}
