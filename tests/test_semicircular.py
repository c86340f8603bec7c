import itertools

import numpy as np
import pytest

from utcat.errors import (
    CPFailure,
    DimensionCap,
    NotAnAutomorphism,
    RowBoundFailure,
    WordTooLong,
)
from utcat.semicircular import (
    BaseAlgebra,
    CovarianceMatrix,
    build_fock,
    catalan,
    covariance_from_automorphisms,
    covariance_from_vectors,
    ind_faithfulness_probe,
    level_grams,
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
    assert np.allclose(eta.entries[(0, 0)], [[1.0]])
    assert abs(eta.bound - 1.0) < 1e-12


def test_orthonormal_pair_gives_identity_covariance():
    eta = covariance_from_vectors([np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])])
    assert np.allclose(eta.entries[(0, 0)], [[1.0]])
    assert np.allclose(eta.entries[(1, 1)], [[1.0]])
    assert np.allclose(eta.entries[(0, 1)], [[0.0]])


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
        CovarianceMatrix(alg, (0, 1), {
            (0, 0): [[1.0]], (1, 1): [[1.0]],
            (0, 1): [[2.0]], (1, 0): [[2.0]]})


def test_row_bound_failure():
    with pytest.raises(RowBoundFailure):
        covariance_from_vectors([np.array([2.0])], bound=1.0)


# -- automorphisms ------------------------------------------------------------

def test_identity_automorphism_doubles():
    eta = covariance_from_automorphisms([np.eye(1)])
    assert np.allclose(eta.entries[(0, 0)], [[2.0]])


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


def test_depth_and_dimension_caps():
    eta = covariance_from_vectors([np.array([1.0, 0.0]),
                                   np.array([0.0, 1.0])])
    with pytest.raises(DimensionCap):
        build_fock(eta, 13)
    with pytest.raises(DimensionCap):
        build_fock(eta, 12)  # 2^12 raw vectors exceed the default cap


def test_operators_are_self_adjoint(id2_family):
    for i in (0, 1):
        X = id2_family.X(i)
        assert np.max(np.abs(X - X.conj().T)) == 0.0


def test_annihilation_acts_by_inner_product(id2_family):
    # T_i† T_j on the vacuum level is multiplication by η_ij(1)
    fock = id2_family.fock
    om = fock.vacuum()
    for i in (0, 1):
        for j in (0, 1):
            Ti = id2_family.creations[i]
            Tj = id2_family.creations[j]
            out = fock.ground_component(Ti.conj().T @ Tj @ om)
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


# (covariance, depth, raw_dims, level_dims)
GRAM_CASES = {
    "eta1": (lambda: covariance_from_vectors([np.array([1.0])]), 10,
             (1,) * 11, (1,) * 11),
    "pair": (lambda: covariance_from_vectors([np.array([1.0, 0.0]),
                                              np.array([0.0, 1.0])]), 6,
             (1, 2, 4, 8, 16, 32, 64), (1, 2, 4, 8, 16, 32, 64)),
    "m2_rotation": (_rotation_eta, 3, (4, 16, 64, 256), (4, 8, 16, 32)),
    "blocks_1_2": (_block_vector_eta, 2, (5, 50, 500), (5, 10, 20)),
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
        v = fock.vacuum()
        for w in reversed(word):
            v = (fam.X(w[1]) if isinstance(w, tuple) else fock.left_mult(w)) @ v
        want = fock.ground_component(v)
        got = vacuum_expectation(fam, word)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("case", ["pair", "m2_rotation", "blocks_1_2"])
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
    Rb = fock.right_mult(b)
    # (x·b)·a = x·(ba)
    assert np.max(np.abs(fock.right_mult(a) @ Rb - fock.right_mult(b @ a))) \
        < 1e-10 * np.max(np.abs(Rb)) ** 2
    for M in [fock.left_mult(a)] + [fam.X(i) for i in eta.index]:
        assert np.max(np.abs(M @ Rb - Rb @ M)) < 1e-10 * np.max(np.abs(Rb))


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


# -- ind criterion ingredients -------------------------------------------------

def test_probe_trivial_covariance():
    eta = covariance_from_vectors([np.array([1.0])])
    rep = ind_faithfulness_probe(eta, depth=4, samples=20)
    assert rep["trace_symmetric"]
    assert rep["kernel_failures"] == 0
    assert rep["blocks"] == (("i0", 1),)
    assert rep["vector_presentation_residual"] < 1e-12
    assert rep["verdict"] == "criterion ingredients verified (finite A)"


def test_probe_automorphism_covariance():
    alg = BaseAlgebra((2,))
    th = 0.3
    u = np.array([[np.cos(th), -np.sin(th)],
                  [np.sin(th), np.cos(th)]], dtype=complex)
    ad = np.zeros((4, 4), dtype=complex)
    for c, e in enumerate(alg.basis):
        ad[:, c] = alg.coords(u @ e @ u.conj().T)
    eta = covariance_from_automorphisms([ad], alg)
    rep = ind_faithfulness_probe(eta, depth=2, samples=10)
    assert rep["trace_symmetry_residual"] < 1e-12
    assert rep["kernel_failures"] == 0
    assert rep["vector_presentation_residual"] < 1e-10


def test_probe_flags_non_symmetric_covariance():
    alg = BaseAlgebra((1, 1))
    eta = CovarianceMatrix(alg, (0,), {(0, 0): np.array([[0.0, 2.0],
                                                         [1.0, 0.0]])})
    rep = ind_faithfulness_probe(eta, depth=3, samples=10)
    assert rep["trace_symmetry_residual"] > 0.1
    assert not rep["trace_symmetric"]
    # the faithfulness probe still runs and passes on honest data
    assert rep["kernel_failures"] == 0


def test_probe_trace_symmetry_is_scale_invariant():
    alg = BaseAlgebra((2,))
    th = 0.7
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    ad = np.stack([alg.coords(u @ e @ u.T) for e in alg.basis], axis=1)
    eta = covariance_from_automorphisms([ad], alg)
    big = CovarianceMatrix(alg, eta.index,
                           {k: 1e6 * m for k, m in eta.entries.items()})
    assert big.trace_symmetry_residual() > 1e-12
    assert eta.is_trace_symmetric() and big.is_trace_symmetric()
    assert ind_faithfulness_probe(big, depth=2, samples=5)["trace_symmetric"]
    skew = CovarianceMatrix(BaseAlgebra((1, 1)), (0,),
                            {(0, 0): 1e-6 * np.array([[0.0, 2.0],
                                                      [1.0, 0.0]])})
    assert skew.trace_symmetry_residual() < 1e-5
    assert not skew.is_trace_symmetric()


def test_kraus_round_trip_m2():
    alg = BaseAlgebra((2,))
    rng = np.random.default_rng(5)
    vs = [rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
          for _ in range(2)]
    eta = covariance_from_vectors(vs, alg)
    rep = ind_faithfulness_probe(eta, depth=2, samples=5)
    assert rep["vector_presentation_residual"] < 1e-10
