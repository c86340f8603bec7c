import dataclasses
import itertools
import re

import numpy as np
import pytest

from fock_reference import (RawFock, ground_component, left_mult, level_grams,
                            raw_factors, vacuum)
from utcat.errors import (
    CPFailure,
    DimensionCap,
    LabelMismatch,
    NotAnAutomorphism,
    UnknownLabel,
    WordTooLong,
)
from utcat.gns import rank_cut
from utcat.semicircular import (
    BaseAlgebra,
    CovarianceMatrix,
    build_fock,
    catalan,
    covariance_from_automorphisms,
    covariance_from_vectors,
    level_cuts,
    nc_moment,
    semicircular_ops,
    vacuum_expectation,
)


@pytest.fixture(scope="module")
def scalar_family():
    eta = covariance_from_vectors([np.array([1.0])])
    return semicircular_ops(build_fock(eta, 10))


@pytest.fixture(scope="module")
def id2_family():
    eta = covariance_from_vectors([np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])])
    return semicircular_ops(build_fock(eta, 4))


def test_catalan_recursion_oracle():
    assert [catalan(m) for m in range(5)] == [1, 1, 2, 5, 14]


def test_single_vector_covariance():
    eta = covariance_from_vectors([np.array([1.0])])
    assert np.allclose(eta.stacked[0, 0], [[1.0]])


def test_empty_index_set_is_refused():
    with pytest.raises(ValueError, match="nonempty index set"):
        covariance_from_vectors([])
    with pytest.raises(ValueError, match="nonempty index set"):
        CovarianceMatrix(BaseAlgebra((2,)), (), np.zeros((0, 0, 4, 4)))


def test_repeated_index_ids_are_refused():
    # the second copy of an id could never be read: every lookup resolves
    # the id to its first position
    for index in ((0, 0), (1, 1.0)):
        with pytest.raises(ValueError, match="index ids must be distinct"):
            CovarianceMatrix(BaseAlgebra((1,)), index,
                             np.eye(2)[:, :, None, None])


def test_orthonormal_pair_gives_identity_covariance():
    eta = covariance_from_vectors([np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])])
    assert np.allclose(eta.stacked[0, 0], [[1.0]])
    assert np.allclose(eta.stacked[1, 1], [[1.0]])
    assert np.allclose(eta.stacked[0, 1], [[0.0]])


def test_m2_vectors_are_cp():
    alg = BaseAlgebra((2,))
    rng = np.random.default_rng(3)
    vs = [rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
          for _ in range(2)]
    eta = covariance_from_vectors(vs, alg)
    assert eta.cp_floor >= -1e-12


def test_cp_failure():
    alg = BaseAlgebra((1,))
    with pytest.raises(CPFailure):
        CovarianceMatrix(alg, (0, 1), [[[[1.0]], [[2.0]]],
                                       [[[2.0]], [[1.0]]]])


def test_a_nan_stack_is_a_cp_failure():
    # a NaN compares false with every bound, so the gate must fail it
    with pytest.raises(CPFailure, match="nan"):
        CovarianceMatrix(BaseAlgebra((1,)), (0,), np.array([[[[np.nan]]]]))
    with pytest.raises(CPFailure, match="nan"):
        CovarianceMatrix(BaseAlgebra((2,)), (0,), np.full((1, 1, 4, 4), np.inf))


def test_a_stack_of_the_wrong_shape_is_refused():
    # a 3×3 entry on M₂: the message names both shapes
    with pytest.raises(ValueError, match=re.escape(
            "η stack has shape (1, 1, 3, 3), expected (1, 1, 4, 4)")):
        CovarianceMatrix(BaseAlgebra((2,)), (0,), np.eye(3)[None, None])


def test_a_keyed_dict_is_refused():
    # η is a stack; a dict keyed by ids, here with ids outside the index
    # whose entries a zero-filling read would drop, is not one
    with pytest.raises(TypeError):
        CovarianceMatrix(BaseAlgebra((1,)), (0, 1), {
            (0, 0): [[1]], (1, 1): [[1]], (0, 2): [[5]], ("1", "1"): [[7]]})


def test_the_stack_is_a_read_only_copy():
    given = np.ones((1, 1, 1, 1))
    eta = CovarianceMatrix(BaseAlgebra((1,)), (0,), given)
    given[0, 0] = 9.0
    assert eta.stacked[0, 0, 0, 0] == 1.0
    with pytest.raises(ValueError):
        eta.stacked[0, 0, 0, 0] = 2.0


def test_apply_with_an_unknown_id_raises_unknown_label():
    eta = covariance_from_vectors([np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])])
    assert np.allclose(eta.apply(0, 0, np.eye(1)), [[1.0]])
    with pytest.raises(UnknownLabel):
        eta.apply(0, 5, np.eye(1))
    with pytest.raises(UnknownLabel):
        eta.apply("0", 0, np.eye(1))


def test_cp_floor_is_not_a_constructor_argument():
    # the floor is always computed, so a value passed in would be ignored
    with pytest.raises(TypeError):
        CovarianceMatrix(BaseAlgebra((1,)), (0,), [[[[1.0]]]],
                         cp_floor=-1.0)


def _seeded_m2_vector():
    rng = np.random.default_rng(0)
    return rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))


# -- covariance checks against their per-entry loops ---------------------------

def _reference_cp_floor(eta):
    """Choi-type matrix filled one η_ij(e_α* e_β) block at a time."""
    alg = eta.algebra
    nA, nI, d = alg.dim, len(eta.index), alg.d
    big = np.zeros((nA * nI * d, nA * nI * d), dtype=complex)
    for ai, ei in enumerate(alg.basis):
        for bi, ej in enumerate(alg.basis):
            prod = ei.conj().T @ ej
            for x, i in enumerate(eta.index):
                for y, j in enumerate(eta.index):
                    r = (ai * nI + x) * d
                    c = (bi * nI + y) * d
                    big[r:r + d, c:c + d] = eta.apply(i, j, prod)
    return float(np.linalg.eigvalsh((big + big.conj().T) / 2)[0])


def _reference_trace_residual(eta):
    alg = eta.algebra
    worst = 0.0
    for i in eta.index:
        for j in eta.index:
            for x in alg.basis:
                for y in alg.basis:
                    lhs = alg.trace(eta.apply(i, j, x) @ y)
                    rhs = alg.trace(x @ eta.apply(j, i, y))
                    worst = max(worst, abs(lhs - rhs))
    return worst


def _m2_vectors_eta():
    rng = np.random.default_rng(3)
    vs = [rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
          for _ in range(2)]
    return covariance_from_vectors(vs, BaseAlgebra((2,)))


def _skew_eta():
    """A non-trace-symmetric covariance on ℂ ⊕ ℂ."""
    return CovarianceMatrix(BaseAlgebra((1, 1)), (0,),
                            np.array([[0.0, 2.0], [1.0, 0.0]])[None, None])


def _sampled_row_eta():
    """Two vectors over ℂ ⊕ M₂ with their last column zero, so every
    η_ij(a) vanishes in its last row and column."""
    alg = BaseAlgebra((1, 2))
    rng = np.random.default_rng(49)
    mask = alg.element(np.ones(alg.dim)).real
    vs = [(rng.normal(size=(1, 3, 3)) + 1j * rng.normal(size=(1, 3, 3)))
          * mask @ np.diag([1, 1, 0]) for _ in range(2)]
    return covariance_from_vectors(vs, alg)


# lambdas, since the rotation and block helpers are defined further down
COVARIANCE_CASES = {
    "eta1": lambda: covariance_from_vectors([np.array([1.0])]),
    "pair": lambda: covariance_from_vectors([np.array([1.0, 0.0]),
                                             np.array([0.0, 1.0])]),
    "seeded_xi": lambda: covariance_from_vectors([_seeded_m2_vector()],
                                                 BaseAlgebra((2,))),
    "m2_vectors": _m2_vectors_eta,
    "m2_rotation": lambda: _rotation_eta(),
    "blocks_1_2": lambda: _block_vector_eta(),
    "skew_1_1": _skew_eta,
    "sampled_row": _sampled_row_eta,
}


def _reference_vector_entries(vectors, alg):
    """η_ij column by column: the coordinates of Σ_s ξ_is* e ξ_js."""
    xs = [np.asarray(v, dtype=complex).reshape(-1, alg.d, alg.d)
          for v in vectors]
    return {(i, j): np.stack([alg.coords(sum(xs[i][s].conj().T @ e @ xs[j][s]
                                             for s in range(len(xs[i]))))
                              for e in alg.basis], axis=1)
            for i in range(len(xs)) for j in range(len(xs))}


@pytest.mark.parametrize("case", ["pair", "m2_vectors", "blocks_1_2"])
def test_vector_covariance_matches_the_loop(case):
    alg = {"pair": BaseAlgebra((1,)), "m2_vectors": BaseAlgebra((2,)),
           "blocks_1_2": BaseAlgebra((1, 2))}[case]
    rng = np.random.default_rng(6)
    shape = (2, alg.d, alg.d)
    mask = alg.element(np.ones(alg.dim)).real  # keeps vectors inside A
    vs = [(rng.normal(size=shape) + 1j * rng.normal(size=shape)) * mask
          for _ in range(2)]
    eta = covariance_from_vectors(vs, alg)
    for key, want in _reference_vector_entries(vs, alg).items():
        assert np.max(np.abs(eta.stacked[key] - want)) \
            <= 1e-12 * max(1.0, np.max(np.abs(want)))


def test_covariance_fields_are_read_only():
    # cp_floor was computed from index and stacked, which every Fock space
    # and its cached halves are built from
    eta = COVARIANCE_CASES["pair"]()
    fields = {"algebra": BaseAlgebra((2,)), "index": (0, 2),
              "stacked": np.zeros_like(eta.stacked), "cp_floor": 1.0}
    before = {name: getattr(eta, name) for name in fields}
    for name, value in fields.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(eta, name, value)
        assert getattr(eta, name) is before[name]
    with pytest.raises(ValueError):
        eta.stacked[0, 0, 0, 0] = 2.0


@pytest.mark.parametrize("case", sorted(COVARIANCE_CASES))
def test_batched_covariance_checks_match_the_loops(case):
    eta = COVARIANCE_CASES[case]()
    for got, want in ((eta.cp_floor, _reference_cp_floor(eta)),
                      (eta.trace_symmetry_residual(),
                       _reference_trace_residual(eta))):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


# -- automorphisms ------------------------------------------------------------

def test_identity_automorphism_doubles():
    eta = covariance_from_automorphisms([np.eye(1)])
    assert np.allclose(eta.stacked[0, 0], [[2.0]])


def test_swap_automorphism_is_trace_symmetric():
    alg = BaseAlgebra((1, 1))
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    eta = covariance_from_automorphisms([swap], alg)
    assert eta.trace_symmetry_residual() < 1e-12


def test_inner_automorphism_of_m2():
    alg = BaseAlgebra((2,))
    th = 0.7
    u = np.array([[np.cos(th), -np.sin(th)],
                  [np.sin(th), np.cos(th)]], dtype=complex)
    ad = np.zeros((4, 4), dtype=complex)
    for c, e in enumerate(alg.basis):
        ad[:, c] = alg.coords(u @ e @ u.conj().T)
    eta = covariance_from_automorphisms([ad], alg)
    assert eta.cp_floor >= -1e-12
    assert eta.trace_symmetry_residual() < 1e-12


def test_rejects_non_automorphisms():
    alg = BaseAlgebra((1, 1))
    with pytest.raises(NotAnAutomorphism):
        covariance_from_automorphisms([np.array([[1.0, 1.0], [0.0, 1.0]])],
                                      alg)
    with pytest.raises(NotAnAutomorphism):
        covariance_from_automorphisms([np.array([[2.0, 0.0], [0.0, 1.0]])],
                                      alg)


def test_a_nan_automorphism_is_refused():
    # a NaN compares false with every tolerance, so each gate must fail it
    with pytest.raises(NotAnAutomorphism, match="not unital"):
        covariance_from_automorphisms([np.array([[np.nan]])])
    alg, al = BaseAlgebra((1, 1)), np.eye(2)
    al[1, 0] = np.nan  # unital in the first coordinate only
    with pytest.raises(NotAnAutomorphism):
        covariance_from_automorphisms([al], alg)


def _reference_automorphism_failure(alg, al, tol=1e-10):
    """The first check a loop over basis elements and pairs fails, in the
    order unital, multiplicative, *, invertible; None for an automorphism."""
    def act(a):
        return alg.element(al @ alg.coords(a))

    if np.linalg.norm(act(np.eye(alg.d)) - np.eye(alg.d)) > tol:
        return "not unital"
    if any(np.linalg.norm(act(x @ y) - act(x) @ act(y)) > tol
           for x in alg.basis for y in alg.basis):
        return "not multiplicative"
    if any(np.linalg.norm(act(x.conj().T) - act(x).conj().T) > tol
           for x in alg.basis):
        return "does not commute with *"
    if abs(np.linalg.det(al)) < 1e-12:
        return "not invertible"
    return None


def _conjugation(alg, S):
    return np.stack([alg.coords(S @ e @ np.linalg.inv(S)) for e in alg.basis],
                    axis=1)


@pytest.mark.parametrize("blocks", [(2,), (1, 2), (3,), (1, 1)])
def test_automorphism_checks_match_the_loop(blocks):
    alg = BaseAlgebra(blocks)
    rng = np.random.default_rng(sum(blocks))
    u = np.zeros((alg.d, alg.d), dtype=complex)
    off = 0
    for k in blocks:
        u[off:off + k, off:off + k] = np.linalg.qr(
            rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))[0]
        off += k
    s = np.eye(alg.d) + np.diag(np.ones(alg.d - 1), 1) * (len(blocks) == 1)
    maps = {
        "inner": _conjugation(alg, u),
        "similarity": _conjugation(alg, s),
        "transpose": np.stack([alg.coords(e.T) for e in alg.basis], axis=1),
        "random": rng.normal(size=(alg.dim,) * 2)
        + 1j * rng.normal(size=(alg.dim,) * 2),
        # a ↦ a[0,0]·1: a character when the first block is 1×1
        "collapse": np.outer(alg.unit_coords, alg.basis[:, 0, 0]),
    }
    for name, al in maps.items():
        want = _reference_automorphism_failure(alg, al)
        if want is None:
            eta = covariance_from_automorphisms([al], alg)
            assert np.allclose(eta.stacked[0, 0], al + np.linalg.inv(al))
        else:
            with pytest.raises(NotAnAutomorphism, match=want):
                covariance_from_automorphisms([al], alg)


# -- Fock space ---------------------------------------------------------------

def test_scalar_fock_levels_are_lines(scalar_family):
    assert scalar_family.fock.level_dims == (1,) * 11


def test_id2_fock_level_dims(id2_family):
    assert id2_family.fock.level_dims == (1, 2, 4, 8, 16)


def test_rank_deficient_gram_is_quotiented():
    # two proportional vectors: the two-letter fiber collapses
    eta = covariance_from_vectors([np.array([1.0]), np.array([1.0])])
    fock = build_fock(eta, 2)
    assert fock.level_dims == (1, 1, 1)
    assert fock.raw_dims == (1, 2, 4)


@pytest.mark.parametrize("blocks", [(1,), (2,)])
def test_zero_covariance_keeps_only_the_vacuum_level(blocks):
    # every level above 0 has rank 0, so the next one is built on nothing
    alg = BaseAlgebra(blocks)
    eta = covariance_from_vectors([np.zeros((1, alg.d, alg.d))], alg)
    fock = build_fock(eta, 3)
    assert fock.level_dims == (alg.dim, 0, 0, 0)
    fam = semicircular_ops(fock)
    assert not vacuum_expectation(fam, [("X", 0)] * 6).any()


def test_depth_and_dimension_caps():
    eta = covariance_from_vectors([np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])])
    with pytest.raises(DimensionCap):
        build_fock(eta, 13)
    # the level Grams have 1 + Σ_{m≤12} 2·2^{m−1} = 8191 rows in all,
    # above the default cap of 4096
    with pytest.raises(DimensionCap, match="8191 rows"):
        build_fock(eta, 12)


def test_a_negative_depth_is_refused():
    eta = covariance_from_vectors([np.array([1.0])])
    with pytest.raises(ValueError, match="depth -1 is negative"):
        build_fock(eta, -1)
    assert build_fock(eta, 0).level_dims == (1,)


def test_m2_rotation_builds_at_depth_five():
    # raw level 5 alone has 4·4^5 = 4096 vectors, but the Grams cut have
    # 4 + 4·(4 + 8 + 16 + 32 + 64) = 500 rows in all
    eta = _rotation_eta()
    fock = build_fock(eta, 5)
    assert fock.level_dims == (4, 8, 16, 32, 64, 128)
    fam = semicircular_ops(fock)
    x = ("X", 0)
    for k in range(11):
        assert _close(vacuum_expectation(fam, [x] * k), nc_moment(eta, [x] * k))
    rng = np.random.default_rng(43)
    for k in range(1, 6):
        word = [eta.algebra.random(rng)] + [x] * k + [eta.algebra.random(rng)] + [x] * k
        assert _close(vacuum_expectation(fam, word), nc_moment(eta, word))


def test_operators_are_self_adjoint(id2_family):
    for i in (0, 1):
        X = id2_family.window(id2_family.fock.depth)[i]
        assert np.max(np.abs(X - X.conj().T)) == 0.0


def test_annihilation_acts_by_inner_product(id2_family):
    # T_i† T_j on the vacuum level is multiplication by η_ij(1)
    fock = id2_family.fock
    om = vacuum(fock)
    for i in (0, 1):
        for j in (0, 1):
            Ti = np.tril(id2_family.window(id2_family.fock.depth)[i], -1)
            Tj = np.tril(id2_family.window(id2_family.fock.depth)[j], -1)
            out = ground_component(fock, Ti.conj().T @ Tj @ om)
            assert abs(out[0, 0] - (1.0 if i == j else 0.0)) < 1e-10


def _reference_grams(eta, depth):
    """Per-pair Gram loop over tuple-labelled raw bases, kept as the reference
    for the one-contraction-per-level recursion in `level_grams`."""
    alg = eta.algebra
    nA, nI = alg.dim, len(eta.index)
    level_basis = [
        [(pairs, beta)
         for pairs in itertools.product(
             itertools.product(range(nA), range(nI)), repeat=m)
         for beta in range(nA)]
        for m in range(depth + 1)]
    g0 = np.zeros((nA, nA, alg.d, alg.d), dtype=complex)
    for b in range(nA):
        for c in range(nA):
            g0[b, c] = alg.basis[b].conj().T @ alg.basis[c]
    grams = [g0]
    for m in range(1, depth + 1):
        basis = level_basis[m]
        didx = {key: t for t, key in enumerate(level_basis[m - 1])}
        s = len(basis)
        G = np.zeros((s, s, alg.d, alg.d), dtype=complex)
        prev = grams[m - 1]
        for t, (pu, bu) in enumerate(basis):
            (au, iu), ru = pu[0], pu[1:]
            urow = didx[(ru, bu)]
            for tt, (pv, bv) in enumerate(basis):
                (av, iv), rv = pv[0], pv[1:]
                K = eta.apply(eta.index[iu], eta.index[iv],
                              alg.basis[au].conj().T @ alg.basis[av])
                first = rv[0][0] if rv else bv
                prod = alg.coords(K @ alg.basis[first])
                for c, coeff in enumerate(prod):
                    if not coeff:
                        continue
                    if rv:
                        key = (((c, rv[0][1]),) + rv[1:], bv)
                    else:
                        key = ((), c)
                    G[t, tt] += coeff * prev[urow, didx[key]]
        grams.append(G)
    return grams


def _rotation_eta(th=0.7):
    alg = BaseAlgebra((2,))
    u = np.array([[np.cos(th), -np.sin(th)],
                  [np.sin(th), np.cos(th)]], dtype=complex)
    ad = np.zeros((4, 4), dtype=complex)
    for c, e in enumerate(alg.basis):
        ad[:, c] = alg.coords(u @ e @ u.conj().T)
    return covariance_from_automorphisms([ad], alg)


def _block_vector_eta(seed=4):
    """Two random block-diagonal vectors over A = ℂ ⊕ M₂."""
    alg = BaseAlgebra((1, 2))
    rng = np.random.default_rng(seed)
    mask = np.zeros((3, 3))
    mask[0, 0] = 1.0
    mask[1:, 1:] = 1.0
    vs = [(rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))) * mask
          for _ in range(2)]
    return covariance_from_vectors(vs, alg)


def _haar_pair_eta(seed=5):
    """Two orthonormal vectors of ℂ² over A = ℂ, the rows of a Haar unitary
    (as the benchmark's vector families): η = 1, but complex windows."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return covariance_from_vectors([Q[0], Q[1]])


def _self_adjoint_pair_eta():
    """η_ij(a) = ξ_i·a·ξ_j for two self-adjoint ξ ∈ M₂: trace-symmetric,
    with η_01 ≠ η_10, so a swap of the indices changes the mixed moments."""
    xi = [np.array([[1, 2], [2, -1]]), np.array([[0, 1j], [-1j, 2]])]
    return covariance_from_vectors([x[None] for x in xi], BaseAlgebra((2,)))


# (covariance, depth, raw_dims, level_dims)
GRAM_CASES = {
    "eta1": (lambda: covariance_from_vectors([np.array([1.0])]), 10,
             (1,) * 11, (1,) * 11),
    "pair": (lambda: covariance_from_vectors([np.array([1.0, 0.0]),
                                              np.array([0.0, 1.0])]), 6,
             (1, 2, 4, 8, 16, 32, 64), (1, 2, 4, 8, 16, 32, 64)),
    "m2_rotation": (_rotation_eta, 3, (4, 16, 64, 256), (4, 8, 16, 32)),
    "blocks_1_2": (_block_vector_eta, 2, (5, 50, 500), (5, 10, 20)),
    "haar_pair": (_haar_pair_eta, 3, (1, 2, 4, 8), (1, 2, 4, 8)),
}


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_level_grams_match_the_pair_loop(case):
    make, depth, raw_dims, level_dims = GRAM_CASES[case]
    eta = make()
    grams = list(level_grams(eta, depth))
    ref = _reference_grams(eta, depth)
    assert len(grams) == len(ref) == depth + 1
    for G, R in zip(grams, ref):
        assert G.shape == R.shape
        assert np.max(np.abs(G - R)) <= 1e-12 * max(1.0, np.max(np.abs(R)))
    fock = build_fock(eta, depth)
    assert fock.raw_dims == raw_dims
    assert fock.level_dims == level_dims


SCALAR_CUT_CASES = {
    **{k: v[:2] for k, v in GRAM_CASES.items()},
    # A = ℂ with a non-orthonormal and a rank-deficient covariance
    "skewed": (lambda: covariance_from_vectors([np.array([1.0, 0.5j]),
                                                np.array([0.3, 1.0])]), 6),
    "proportional": (lambda: covariance_from_vectors(
        [np.array([1.0, 2.0]), np.array([2.0, 4.0])]), 5),
    # eigenvalues 1 and 1e-6: their products fall below the cut at level 2
    "graded": (lambda: covariance_from_vectors([np.array([1.0, 0.0]),
                                                np.array([0.0, 1e-3])]), 4),
}


@pytest.mark.parametrize("case", sorted(SCALAR_CUT_CASES))
def test_level_cuts_factor_the_scalar_grams(case):
    # over A = ℂ the cut is a Kronecker power, elsewhere a real or complex
    # eigh: either way the factor carried back to the raw basis, F, has
    # F·F* the scalar Gram, and the rank is rank_cut's
    make, depth = SCALAR_CUT_CASES[case]
    eta = make()
    cuts = list(level_cuts(eta, depth))
    assert len(cuts) == depth + 1
    grams = level_grams(eta, depth)
    for F, cut, G in zip(raw_factors(eta, cuts), cuts, grams):
        Q = np.einsum("stii->st", G) / eta.algebra.d
        assert np.max(np.abs(F @ F.conj().T - Q)) <= 1e-12 * np.max(np.abs(Q))
        assert cut.rank == rank_cut(Q).rank


RAW_CUT_CASES = {
    **SCALAR_CUT_CASES,
    # two indices over M₂: 256 raw vectors at level 2
    "m2_pair": (_m2_vectors_eta, 2),
}


@pytest.mark.parametrize("case", sorted(RAW_CUT_CASES))
def test_level_cuts_equal_the_raw_cuts(case):
    # level m is cut on (A⊗ℂ^I) ⊗ (range of level m−1), or as a Kronecker
    # power over A = ℂ: the rank, the kept eigenvalues and the gap are those
    # of the cut of the raw level-m Gram
    make, depth = RAW_CUT_CASES[case]
    eta = make()
    cuts = list(level_cuts(eta, depth))
    assert len(cuts) == depth + 1
    for cut, G in zip(cuts, level_grams(eta, depth)):
        raw = rank_cut(np.einsum("stii->st", G) / eta.algebra.d)
        scale = raw.w[-1]
        assert cut.rank == raw.rank
        assert np.max(np.abs(np.sort(cut.w) - raw.w)) <= 1e-12 * scale
        assert (cut.gap is None) == (raw.gap is None)
        if raw.gap is not None:
            assert abs(cut.gap[0] - raw.gap[0]) <= 1e-12 * scale
            assert abs(cut.gap[1] - raw.gap[1]) <= 1e-12 * scale


def test_kronecker_cut_gaps_on_a_graded_spectrum():
    # C = diag(1, 1e-6): nothing is dropped up to level 1; from level 2 on
    # the products 1e-12 fall below the cut, next to the kept 1e-6
    make, depth = SCALAR_CUT_CASES["graded"]
    fock = build_fock(make(), depth)
    assert fock.level_dims == (1, 2, 3, 4, 5)
    assert fock.cut_gaps[:2] == (None, None)
    for kept, dropped in fock.cut_gaps[2:]:
        assert abs(kept - 1e-6) <= 1e-18 and abs(dropped - 1e-12) <= 1e-24


@pytest.mark.parametrize("case", ["pair", "m2_rotation", "blocks_1_2"])
def test_level_walk_matches_dense_operators(case):
    make, depth = GRAM_CASES[case][:2]
    depth = min(depth, 4)
    eta = make()
    fock = build_fock(eta, depth)
    fam = semicircular_ops(fock)
    alg = eta.algebra
    rng = np.random.default_rng(11)
    for _ in range(12):
        nx = int(rng.integers(0, 2 * depth + 1))
        word = [("X", eta.index[rng.integers(len(eta.index))])
                for _ in range(nx)]
        for _ in range(int(rng.integers(1, 4))):
            word.insert(int(rng.integers(len(word) + 1)), alg.random(rng))
        v = vacuum(fock)
        for w in reversed(word):
            v = (fam.window(fam.fock.depth)[w[1]] if isinstance(w, tuple)
                 else left_mult(fock, w)) @ v
        want = ground_component(fock, v)
        got = vacuum_expectation(fam, word)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


def _reference_walk(fam, word):
    """The per-level walk: one vector per level, T_i and T_i† applied
    blockwise, levels above the X letters still to come dropped."""
    fock = fam.fock
    nx = sum(1 for w in word if isinstance(w, tuple))
    levels = {0: fock.to_onb[0] @ fock.eta.algebra.unit_coords}
    for w in reversed(word):
        if isinstance(w, tuple):
            nx -= 1
            up = fam.blocks[w[1]]
            top = min(nx, fock.depth)
            out = {}
            for m, v in levels.items():
                if m < top:
                    out[m + 1] = out.get(m + 1, 0) + up[m] @ v
                if m:
                    out[m - 1] = out.get(m - 1, 0) + up[m - 1].conj().T @ v
            levels = out
        else:
            L = fock.eta.algebra.left_matrix(np.asarray(w, dtype=complex))
            levels = {m: fock.left_block(m, L) @ v for m, v in levels.items()}
    ground = levels.get(0, np.zeros(fock.level_dims[0]))
    return fock.eta.algebra.element(fock.from_onb[0] @ ground)


def _window_words(eta, depth, rng):
    """Mixed X/A words, the empty word, A-only words and words with
    exactly 2·depth X letters."""
    alg, index = eta.algebra, eta.index

    def x_word(nx):
        return [("X", index[rng.integers(len(index))]) for _ in range(nx)]

    def with_a(word, k):
        word = list(word)
        for _ in range(k):
            word.insert(int(rng.integers(len(word) + 1)), alg.random(rng))
        return word

    words = [[]] + [with_a([], k) for k in (1, 2, 3)]
    words += [with_a(x_word(int(rng.integers(1, 2 * depth + 1))),
                     int(rng.integers(1, 4))) for _ in range(6)]
    words += [x_word(2 * depth) for _ in range(3)]
    words += [with_a(x_word(2 * depth), 2) for _ in range(3)]
    return words


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_window_matches_the_level_walk(case):
    make, top = GRAM_CASES[case][:2]
    eta = make()
    rng = np.random.default_rng(17)
    for depth in range(1, min(top, 4) + 1):
        fam = semicircular_ops(build_fock(eta, depth))
        for word in _window_words(eta, depth, rng):
            want = _reference_walk(fam, word)
            got = vacuum_expectation(fam, word)
            assert np.max(np.abs(got - want)) \
                <= 1e-12 * max(1.0, np.max(np.abs(want)))
        with pytest.raises(WordTooLong):
            vacuum_expectation(fam, [("X", eta.index[0])] * (2 * depth + 1))
        # the window of the full depth is built once
        assert fam.window(depth) is fam.window(fam.fock.depth)


def _x_words(eta, depth):
    """Every X-word of length 1…2·depth."""
    return [[("X", i) for i in w] for n in range(1, 2 * depth + 1)
            for w in itertools.product(eta.index, repeat=n)]


def _assert_walk(fam, word):
    want = _reference_walk(fam, word)
    got = vacuum_expectation(fam, word)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("case", ["pair", "m2_rotation", "blocks_1_2"])
def test_state_cache_does_not_depend_on_the_query_order(case):
    # the sweep asked in a shuffled and in the reversed order, each on a
    # fresh family, so different halves are cached first
    make, top = GRAM_CASES[case][:2]
    eta = make()
    fock = build_fock(eta, min(top, 3))
    words = _x_words(eta, fock.depth)
    rng = np.random.default_rng(23)
    for order in (rng.permutation(len(words)), range(len(words) - 1, -1, -1)):
        fam = semicircular_ops(fock)
        for t in order:
            _assert_walk(fam, words[t])


@pytest.mark.parametrize("case", ["pair", "m2_rotation", "blocks_1_2"])
def test_a_letters_on_both_sides_of_the_split(case):
    # the split falls after the ⌊nx/2⌋-th X letter: A letters at both ends,
    # inside each half and right at the split
    make, top = GRAM_CASES[case][:2]
    eta = make()
    fam = semicircular_ops(build_fock(eta, min(top, 3)))
    alg, rng = eta.algebra, np.random.default_rng(29)
    for _ in range(8):
        nx = int(rng.integers(2, 2 * fam.fock.depth + 1))
        xs = [("X", eta.index[rng.integers(len(eta.index))]) for _ in range(nx)]
        h = nx // 2
        a = [alg.random(rng) for _ in range(5)]
        word = ([a[0]] + xs[:1] + [a[1]] + xs[1:h] + [a[2]] + xs[h:h + 1]
                + [a[3]] + xs[h + 1:] + [a[4]])
        _assert_walk(fam, word)
    # only pure-X halves are cached
    assert all(isinstance(k, tuple) for k in fam._kets)
    assert all(isinstance(k, tuple) for k in fam._bras)


@pytest.mark.parametrize("case", ["eta1", "pair", "m2_rotation", "blocks_1_2"])
def test_state_cache_holds_at_most_one_state_per_x_word(case):
    make, top = GRAM_CASES[case][:2]
    eta = make()
    fam = semicircular_ops(build_fock(eta, min(top, 3)))
    n = fam.fock.depth
    for word in _x_words(eta, n):
        vacuum_expectation(fam, word)
    # every X-word of length ≤ depth is a half of some word of the sweep
    bound = sum(len(eta.index) ** k for k in range(n + 1))
    assert len(fam._kets) == len(fam._bras) == bound
    # words with A letters add no half, on either side of the split
    for word in _split_words(eta, n, np.random.default_rng(31)):
        vacuum_expectation(fam, word)
    assert len(fam._kets) == len(fam._bras) == bound
    # a ket is one column, a bra d² columns, and both are read-only
    d2 = eta.algebra.d ** 2
    for cache, cols in ((fam._kets, ()), (fam._bras, (d2,))):
        for key, S in cache.items():
            assert S.shape == (fam.fock.offsets[len(key)].stop,) + cols
            assert not S.flags.writeable
            with pytest.raises(ValueError):
                S[0] = 1.0


def test_moments_and_states_do_not_alias_the_cache():
    eta = GRAM_CASES["m2_rotation"][0]()
    fam = semicircular_ops(build_fock(eta, 2))
    word = [("X", 0)] * 4
    got = vacuum_expectation(fam, word)
    want = got.copy()
    got[...] = 7.0
    assert np.array_equal(vacuum_expectation(fam, word), want)
    # the moment cached the halves of X₀X₀ on both sides of its split
    with pytest.raises(ValueError):
        fam._kets[(0, 0)][0] = 1.0
    with pytest.raises(ValueError):
        fam._bras[(0, 0)][0, 0] = 1.0


# (covariance, depth) of the families whose moments are read on the raw basis
HALF_CASES = {
    "eta1": (GRAM_CASES["eta1"][0], 4),
    "pair": (GRAM_CASES["pair"][0], 3),
    "m2_rotation": (_rotation_eta, 3),
    "blocks_1_2": (_block_vector_eta, 2),
}


def _split_words(eta, depth, rng):
    """Words with A letters on both halves: at both ends, right at the
    split after the ⌊nx/2⌋-th X letter, and inside each half."""
    alg, index = eta.algebra, eta.index
    words = []
    for nx in range(2 * depth + 1):
        xs = [("X", index[t]) for t in rng.integers(len(index), size=nx)]
        h = nx // 2
        a = [alg.random(rng) for _ in range(5)]
        words.append([a[0]] + xs[:h] + [a[1]] + xs[h:] + [a[2]])
        words.append(xs[:h] + [a[3]] + xs[h:])
        if h:
            words.append([a[0]] + xs[:1] + [a[1]] + xs[1:h] + [a[2]]
                         + xs[h:h + 1] + [a[3]] + xs[h + 1:] + [a[4]])
    return words


@pytest.mark.parametrize("case", sorted(HALF_CASES))
def test_a_letters_on_both_halves_match_the_raw_reference(case):
    # the bra carries conj(l*·P₀*): an A letter on it acts by the
    # transpose of its block, on the ket by the block itself
    make, depth = HALF_CASES[case]
    eta = make()
    fock = build_fock(eta, depth)
    fam, raw = semicircular_ops(fock), RawFock(fock)
    for word in _split_words(eta, depth, np.random.default_rng(41)):
        assert _close(vacuum_expectation(fam, word), raw.expectation(word))


@pytest.mark.parametrize("case", sorted(HALF_CASES) + ["haar_pair"])
def test_a_letters_at_random_positions_match_the_raw_reference(case):
    # 0–4 A letters anywhere in a word of at most 2·depth X letters, two of
    # them side by side in every other word, and words of A letters only
    make, depth = HALF_CASES.get(case) or GRAM_CASES[case][:2]
    eta = make()
    fock = build_fock(eta, depth)
    fam, raw = semicircular_ops(fock), RawFock(fock)
    alg, rng = eta.algebra, np.random.default_rng(43)
    words = [[alg.random(rng) for _ in range(na)] for na in range(1, 5)]
    for t in range(24):
        word = [("X", eta.index[s]) for s in rng.integers(
            len(eta.index), size=int(rng.integers(2 * depth + 1)))]
        na = int(rng.integers(5))
        if t % 2 and na >= 2:
            p, na = int(rng.integers(len(word) + 1)), na - 2
            word[p:p] = [alg.random(rng), alg.random(rng)]
        for _ in range(na):
            word.insert(int(rng.integers(len(word) + 1)), alg.random(rng))
        words.append(word)
    for word in words:
        assert _close(vacuum_expectation(fam, word), raw.expectation(word))


# (covariance, depth): deeper than the raw reference reaches, and every
# `GRAM_CASES` family at its listed depth
NC_CASES = {
    "m2_rotation_d6": (_rotation_eta, 6),
    "pair_d8": (GRAM_CASES["pair"][0], 8),
    "self_adjoint_m2_d8": (_self_adjoint_pair_eta, 8),
    **{k: v[:2] for k, v in GRAM_CASES.items()},
}


@pytest.mark.parametrize("case", sorted(NC_CASES))
def test_vacuum_moments_match_the_noncrossing_recursion(case):
    # 0–4 A letters at random positions in words of up to 2·depth X letters
    make, depth = NC_CASES[case]
    eta = make()
    fam = semicircular_ops(build_fock(eta, depth))
    alg, rng = eta.algebra, np.random.default_rng(47)
    for t in range(24):
        nx = 2 * depth - t % 2 if t < 4 else int(rng.integers(2 * depth + 1))
        word = [("X", eta.index[s]) for s in rng.integers(len(eta.index), size=nx)]
        for _ in range(int(rng.integers(5))):
            word.insert(int(rng.integers(len(word) + 1)), alg.random(rng))
        assert _close(vacuum_expectation(fam, word), nc_moment(eta, word))


def test_the_noncrossing_recursion_gives_the_catalan_numbers():
    # without a Fock space, so beyond the depth `build_fock` caps
    x = ("X", 0)
    eta = covariance_from_vectors([np.array([1.0])])
    for m in range(13):
        assert nc_moment(eta, [x] * (2 * m)) == catalan(m)
        assert nc_moment(eta, [x] * (2 * m + 1)) == 0
    eta = _rotation_eta()
    for m in range(17):
        assert _close(nc_moment(eta, [x] * (2 * m)), 2 ** m * catalan(m) * np.eye(2))


def test_the_noncrossing_recursion_reads_eta_ij_in_order():
    # E(X₀·a·X₁) = η₀₁(a) = ξ₀·a·ξ₁, not η₁₀(a)
    eta = _self_adjoint_pair_eta()
    a = eta.algebra.random(np.random.default_rng(3))
    got = nc_moment(eta, [("X", 0), a, ("X", 1)])
    assert _close(got, eta.apply(0, 1, a))
    assert not _close(got, eta.apply(1, 0, a))


def _bad_words(fam):
    """(error, word) pairs: letters the moment refuses, next to X letters
    whose halves a sweep has cached."""
    x, n = ("X", 0), fam.fock.depth
    a = np.eye(fam.fock.eta.algebra.d)
    return [(UnknownLabel, [x, ("X", 7)]), (UnknownLabel, [x, x, x, ("X", 7)]),
            (UnknownLabel, [("X", 7), x, x, x]), (UnknownLabel, [x, a, ("X", 7)]),
            (UnknownLabel, [("X", 7), a, x, x]), (UnknownLabel, [("X", [0]), x]),
            (LabelMismatch, [x, ("Y", 0), x]), (LabelMismatch, [x, x, ("Y", 0)]),
            (LabelMismatch, [("Y", 0), x, x]), (LabelMismatch, [x, np.eye(3), x]),
            (LabelMismatch, [x, ["X", 0], x]),
            (WordTooLong, [x] * (2 * n + 1)), (WordTooLong, [a] + [x] * (2 * n + 1))]


def test_bad_words_are_refused_on_a_cache_hit_and_a_miss(id2_family):
    fresh = semicircular_ops(id2_family.fock)
    swept = semicircular_ops(id2_family.fock)
    for word in _x_words(id2_family.fock.eta, id2_family.fock.depth):
        vacuum_expectation(swept, word)
    for fam in (fresh, swept):
        for err, word in _bad_words(fam):
            with pytest.raises(err) as miss:
                vacuum_expectation(semicircular_ops(fam.fock), word)
            with pytest.raises(err) as hit:
                vacuum_expectation(fam, word)
            assert str(hit.value) == str(miss.value)


def test_bad_words_are_refused_alike_by_the_recursion(id2_family):
    # the letters are resolved by the same helpers, so the same error and
    # message; the recursion has no depth, so none is too long
    fam = id2_family
    x, m2 = ("X", 0), semicircular_ops(build_fock(_rotation_eta(), 2))
    table = [(fam, err, word) for err, word in _bad_words(fam)
             if err is not WordTooLong]
    table += [(fam, LabelMismatch, [x, None, x]), (fam, LabelMismatch, ["X", x]),
              (m2, LabelMismatch, [x, np.eye(3), x]), (m2, UnknownLabel, [("X", 1)])]
    for f, err, word in table:
        with pytest.raises(err) as fock:
            vacuum_expectation(f, word)
        with pytest.raises(err) as oracle:
            nc_moment(f.fock.eta, word)
        assert str(oracle.value) == str(fock.value)


def test_numpy_integer_indices_resolve_like_their_canonical_form(id2_family):
    # ("X", np.int64(i)) is the letter ("X", i): same moment, same halves
    fam = semicircular_ops(id2_family.fock)
    words = _x_words(fam.fock.eta, fam.fock.depth)
    wants = [vacuum_expectation(fam, word) for word in words]
    keys = set(fam._kets), set(fam._bras)
    for word, want in zip(words, wants):
        spelled = [("X", np.int64(i)) for _, i in word]
        assert np.array_equal(vacuum_expectation(fam, spelled), want)
    assert (set(fam._kets), set(fam._bras)) == keys
    # asked first, the spelled letters key the halves by the ids themselves
    fresh = semicircular_ops(id2_family.fock)
    for word, want in zip(words, wants):
        spelled = [("X", np.int64(i)) for _, i in word]
        assert np.array_equal(vacuum_expectation(fresh, spelled), want)
    for cache in (fresh._kets, fresh._bras):
        assert all(type(i) is int for key in cache for i in key)


def test_any_hashable_id_is_a_letter():
    # ids that are not positions, None among them, resolve like 0 and 1
    eta = covariance_from_vectors([np.array([1.0, 0.0]), np.array([0.7, 0.3])])
    renamed = CovarianceMatrix(eta.algebra, (None, "b"), eta.stacked)
    fam, ref = (semicircular_ops(build_fock(e, 3)) for e in (renamed, eta))
    for word in _x_words(eta, 3):
        spelled = [("X", renamed.index[i]) for _, i in word]
        assert np.array_equal(vacuum_expectation(fam, spelled),
                              vacuum_expectation(ref, word))


@pytest.mark.parametrize("case", ["pair", "m2_rotation", "blocks_1_2", "haar_pair"])
def test_moments_with_a_letters_are_noncrossing_pairings(case):
    # E(X_i a X_j) = η_ij(a) and
    # E(X_i a X_j b X_k c X_l) = η_ij(a) b η_kl(c) + η_il(a η_jk(b) c)
    make = GRAM_CASES[case][0]
    eta = make()
    fam = semicircular_ops(build_fock(eta, 2))
    rng = np.random.default_rng(9)
    for _ in range(4):
        i, j, k, l = (eta.index[t] for t in rng.integers(len(eta.index), size=4))
        a, b, c = (eta.algebra.random(rng) for _ in range(3))
        X = [("X", t) for t in (i, j, k, l)]
        got2 = vacuum_expectation(fam, [X[0], a, X[1]])
        want2 = eta.apply(i, j, a)
        got4 = vacuum_expectation(fam, [X[0], a, X[1], b, X[2], c, X[3]])
        want4 = (eta.apply(i, j, a) @ b @ eta.apply(k, l, c)
                 + eta.apply(i, l, a @ eta.apply(j, k, b) @ c))
        for got, want in ((got2, want2), (got4, want4)):
            assert np.max(np.abs(got - want)) < 1e-10 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("case", ["m2_rotation", "blocks_1_2"])
def test_right_action_commutes_with_the_left_and_the_semicirculars(case):
    make, depth = GRAM_CASES[case][:2]
    eta = make()
    fock = build_fock(eta, min(depth, 2))
    fam = semicircular_ops(fock)
    rng = np.random.default_rng(2)
    a, b = eta.algebra.random(rng), eta.algebra.random(rng)
    raw = RawFock(fock)
    Rb = raw.right_mult(b)
    # (x·b)·a = x·(ba)
    assert np.max(np.abs(raw.right_mult(a) @ Rb - raw.right_mult(b @ a))) \
        < 1e-10 * np.max(np.abs(Rb)) ** 2
    for M in [left_mult(fock, a)] + [fam.window(fam.fock.depth)[i] for i in eta.index]:
        assert np.max(np.abs(M @ Rb - Rb @ M)) < 1e-10 * np.max(np.abs(Rb))


# (covariance, depth); the zero covariances have rank 0 above level 0
RAW_WORD_CASES = {
    "m2_rotation": (_rotation_eta, 4),
    "blocks_1_2": (_block_vector_eta, 2),
    "zero_1": (lambda: covariance_from_vectors([np.zeros(1)]), 3),
    "zero_2": (lambda: covariance_from_vectors([np.zeros((1, 2, 2))],
                                               BaseAlgebra((2,))), 3),
}


def _close(got, want) -> bool:
    scale = max(1.0, np.max(np.abs(want), initial=0.0))
    return np.max(np.abs(got - want), initial=0.0) <= 1e-12 * scale


@pytest.mark.parametrize("case", sorted(RAW_WORD_CASES))
def test_a_letters_on_every_level_match_the_raw_reference(case):
    # X^k·a·X^k and a·X^k·b·X^k put a non-scalar A letter on level k for
    # every k ≤ depth; left_mult and T_i are read on the raw basis too
    make, depth = RAW_WORD_CASES[case]
    eta = make()
    fock = build_fock(eta, depth)
    fam, raw = semicircular_ops(fock), RawFock(fock)
    rng = np.random.default_rng(37)
    a, b = eta.algebra.random(rng), eta.algebra.random(rng)
    assert _close(left_mult(fock, a), raw.left_mult(a))
    for i in eta.index:
        for got, want in zip(fam.blocks[i], raw.creation_blocks(i)):
            assert _close(got, want)
    for k in range(depth + 1):
        xs = [("X", eta.index[t])
              for t in rng.integers(len(eta.index), size=2 * k)]
        for word in (xs[:k] + [a] + xs[k:], [a] + xs[:k] + [b] + xs[k:]):
            assert _close(vacuum_expectation(fam, word), raw.expectation(word))


# -- moments ------------------------------------------------------------------

def test_empty_word_is_the_unit(scalar_family):
    assert abs(vacuum_expectation(scalar_family, [])[0, 0] - 1.0) < 1e-14


def test_odd_moments_vanish(scalar_family):
    for ell in (1, 3, 5, 7):
        mom = vacuum_expectation(scalar_family, [("X", 0)] * ell)
        assert abs(mom[0, 0]) < 1e-12


def test_catalan_moments(scalar_family):
    for m in range(5):
        mom = vacuum_expectation(scalar_family, [("X", 0)] * (2 * m))
        assert abs(mom[0, 0] - catalan(m)) < 1e-9


def test_second_moments_recover_covariance(id2_family):
    for i in (0, 1):
        for j in (0, 1):
            mom = vacuum_expectation(id2_family, [("X", i), ("X", j)])
            assert abs(mom[0, 0] - (1.0 if i == j else 0.0)) < 1e-12


def test_only_nested_pairing_survives(id2_family):
    nested = vacuum_expectation(id2_family,
                                [("X", 0), ("X", 1), ("X", 1), ("X", 0)])
    crossing = vacuum_expectation(id2_family,
                                  [("X", 0), ("X", 1), ("X", 0), ("X", 1)])
    assert abs(nested[0, 0] - 1.0) < 1e-12
    assert abs(crossing[0, 0]) < 1e-12


def test_word_length_contract(id2_family):
    with pytest.raises(WordTooLong):
        vacuum_expectation(id2_family, [("X", 0)] * 9)


def test_unknown_x_index_is_refused(id2_family):
    # on a state-cache miss, and for an X letter next to an A letter
    a = np.eye(1)
    for word in ([("X", 7)], [("X", 0), ("X", 7)], [a, ("X", 7)],
                 [("X", 0), ("X", 7), a], [("X", [0])]):
        with pytest.raises(UnknownLabel):
            vacuum_expectation(id2_family, word)
    with pytest.raises(UnknownLabel):
        id2_family.fock.creation_blocks(9)


def test_mistyped_letter_tag_is_refused(id2_family):
    for word in ([("Y", 0)], [("X", 0), ("Y", 0), ("X", 1)], [("X",)], [()]):
        with pytest.raises(LabelMismatch):
            vacuum_expectation(id2_family, word)


def test_letter_of_the_wrong_size_is_refused():
    fam = semicircular_ops(build_fock(_rotation_eta(), 2))
    for word in ([np.eye(3)], [("X", 0), np.eye(3), ("X", 0)]):
        with pytest.raises(LabelMismatch):
            vacuum_expectation(fam, word)
    # a tuple of rows is a matrix, not an X letter
    rows = vacuum_expectation(fam, [tuple(2 * np.eye(2))])
    assert np.max(np.abs(rows - 2 * np.eye(2))) < 1e-12


def test_expectation_is_bimodular():
    alg = BaseAlgebra((2,))
    rng = np.random.default_rng(8)
    vs = [rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))]
    eta = covariance_from_vectors(vs, alg)
    fam = semicircular_ops(build_fock(eta, 2))
    for _ in range(5):
        a, b = alg.random(rng), alg.random(rng)
        word = [("X", 0), ("X", 0)]
        mid = vacuum_expectation(fam, word)
        framed = vacuum_expectation(fam, [a] + word + [b])
        assert np.max(np.abs(framed - a @ mid @ b)) < 1e-10


def test_trace_symmetry_is_scale_invariant():
    alg = BaseAlgebra((2,))
    th = 0.7
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    ad = np.stack([alg.coords(u @ e @ u.T) for e in alg.basis], axis=1)
    eta = covariance_from_automorphisms([ad], alg)
    big = CovarianceMatrix(alg, eta.index, 1e6 * eta.stacked)
    assert big.trace_symmetry_residual() > 1e-12
    assert eta.is_trace_symmetric() and big.is_trace_symmetric()
    skew = _skew_eta()
    assert skew.trace_symmetry_residual() > 0.1
    assert not skew.is_trace_symmetric()
    tiny = CovarianceMatrix(skew.algebra, skew.index, 1e-6 * skew.stacked)
    assert tiny.trace_symmetry_residual() < 1e-5
    assert not tiny.is_trace_symmetric()
