import itertools

import numpy as np
import pytest

import algebra_reference as aref
import tree_reference as ref
from index_reference import f_index
from utcat.algebra_object import pp_check
from utcat.annulus import _assemble, annulus_basis, build_annulus, z_state
from utcat.errors import MissingBraiding, PositivityFailure, SupportTooSmall
from utcat.fixtures import FIXTURE_BUILDERS, fibonacci, ising, su2k, vec_zn
from utcat.skeletal import SkeletalUTC


def _mirror(cat):
    """The mirror category: the same F blocks, the conjugate R blocks."""
    return SkeletalUTC(cat.ring, cat.f_symbols, {k: v.conj() for k, v in cat.r_symbols.items()},
                       cat.qdim)


def _gauged(cat, seed):
    """The same multiplicity-free category in a seeded random unitary vertex
    gauge: each basis vector of O(c, a⊗b) with a, b ≠ 1 times a phase u."""
    ring, rng = cat.ring, np.random.default_rng(seed)
    u = {(a, b, c): 1.0 if ring.unit in (a, b) else np.exp(2j * np.pi * rng.random())
         for a in ring.labels for b in ring.labels for c, _ in ring.channels(a, b)}
    F = {}
    for (a, b, c, d), M in cat.f_symbols.items():
        idx = f_index(ring, a, b, c, d)
        left = np.array([u[(a, b, e)] * u[(e, c, d)] for e, _, _ in idx.left])
        right = np.array([u[(b, c, f)] * u[(a, f, d)] for f, _, _ in idx.right])
        F[(a, b, c, d)] = M * right / left[:, None]
    R = {(a, b, c): M * u[(a, b, c)] / u[(b, a, c)] for (a, b, c), M in cat.r_symbols.items()}
    return SkeletalUTC(ring, F, R, cat.qdim)


def _worst(res):
    return max(res["associativity"], res["unitality"], res["star_involution"],
               res["star_monoidality"], -res["positivity_floor"])


@pytest.fixture(scope="module", params=sorted(FIXTURE_BUILDERS))
def ann(request):
    return build_annulus(FIXTURE_BUILDERS[request.param]())


def test_ground_fiber_counts_support(ann):
    # dim 𝒟(1) = Σ_X N(X̄, X, 1) = |S| since every X̄⊗X contains 1 once
    assert ann.n(ann.cat.ring.unit) == len(ann.meta["support"])


def test_build_residuals_are_tiny(ann):
    res = ann.meta["residuals"]
    assert res["associativity"] < 1e-9
    assert res["unitality"] < 1e-10
    assert res["star_involution"] < 1e-10
    assert res["star_monoidality"] < 1e-9
    assert res["positivity_floor"] > -1e-10


def test_star_phases_are_unimodular(ann):
    for phase in ann.meta["star_phases"].values():
        assert abs(abs(phase) - 1.0) < 1e-10


def test_pp_check_on_every_label(ann):
    # the square-algebra star fixes the unit also on labels of
    # Frobenius–Schur indicator −1 (the half-integer spins of SU(2)_k)
    for X in ann.cat.ring.labels:
        assert pp_check(ann, X, samples=3)["violations"] == 0


def test_z_state_is_positive_and_unital(ann):
    zs = z_state(ann)
    assert zs["unital"]
    assert zs["positivity_floor"] >= -1e-10


def test_fiber_dimension_oracles():
    fib = build_annulus(fibonacci())
    assert {X: fib.n(X) for X in fib.cat.ring.labels} == {"1": 2, "tau": 1}
    isg = build_annulus(ising())
    assert {X: isg.n(X) for X in isg.cat.ring.labels} == \
        {"1": 3, "psi": 1, "sigma": 0}
    z4 = build_annulus(vec_zn(4))
    assert z4.n("g0") == 4 and all(z4.n(f"g{k}") == 0 for k in (1, 2, 3))


def test_pointed_annulus_is_the_group_algebra():
    # for ℤ/n the annulus ground fiber is exactly the group algebra:
    # e_g · e_h = e_{g+h} with no extra scalars
    n = 5
    ann = build_annulus(vec_zn(n))
    P = ann.mu("g0", "g0", "g0")[0]
    basis = annulus_basis(ann.cat, ann.meta["support"], "g0")
    idx = {X: i for i, (X, t) in enumerate(basis)}
    for i in range(n):
        for j in range(n):
            expected = np.zeros(n)
            expected[idx[f"g{(i + j) % n}"]] = 1.0
            got = P[:, idx[f"g{i}"], idx[f"g{j}"]]
            assert np.max(np.abs(got - expected)) < 1e-10


def test_restricted_support():
    ann = build_annulus(ising(), S=("1", "psi"))
    assert ann.n("1") == 2
    zs = z_state(ann)
    assert zs["positivity_floor"] >= -1e-10


def test_unclosed_support_raises():
    with pytest.raises(SupportTooSmall) as exc:
        build_annulus(ising(), S=("1", "sigma"))
    assert "psi" in exc.value.missing


def test_unbraided_category_raises():
    fib = fibonacci()
    bare = SkeletalUTC(fib.ring, fib.f_symbols, None, fib.qdim)
    with pytest.raises(MissingBraiding):
        build_annulus(bare)


def test_annulus_basis_enumeration():
    cat = ising()
    S = ("1", "psi", "sigma")
    assert annulus_basis(cat, S, "1") == [("1", 0), ("psi", 0), ("sigma", 0)]
    assert annulus_basis(cat, S, "psi") == [("sigma", 0)]
    assert annulus_basis(cat, S, "sigma") == []


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("k", range(1, 9))
def test_su2k_annulus_builds(k, mirror):
    cat = _mirror(su2k(k)) if mirror else su2k(k)
    assert _worst(build_annulus(cat).meta["residuals"]) <= 1e-9


def test_star_phases_are_the_loop_twists():
    tau, sigma = np.exp(4j * np.pi / 5), np.exp(1j * np.pi / 8)
    want = {
        "fib": {("1", "1"): 1, ("tau", "1"): tau, ("tau", "tau"): tau},
        "ising": {("1", "1"): 1, ("psi", "1"): -1, ("sigma", "1"): sigma,
                  ("sigma", "psi"): sigma},
    }
    for name, phases in want.items():
        got = build_annulus(FIXTURE_BUILDERS[name]()).meta["star_phases"]
        assert set(got) == set(phases)
        assert all(abs(got[key] - phases[key]) < 1e-12 for key in phases)


@pytest.mark.parametrize("name, label", [
    (name, label) for name in ("fib", "ising", "su2_2", "su2_3", "su2_4")
    for label in FIXTURE_BUILDERS[name]().ring.labels if label not in ("1", "j0")])
def test_negated_twist_is_refused(name, label):
    cat = FIXTURE_BUILDERS[name]()
    twist = cat.twist
    cat.twist = lambda x: -twist(x) if x == label else twist(x)
    with pytest.raises(PositivityFailure):
        build_annulus(cat)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("build", [ising, lambda: vec_zn(3)], ids=["ising", "vec_z3"])
def test_random_vertex_gauge_still_builds(build, seed):
    cat = _gauged(build(), seed)
    assert cat.verify_pentagon() < 1e-12 and cat.verify_hexagon() < 1e-12
    assert _worst(build_annulus(cat).meta["residuals"]) <= 1e-9


REFERENCE_CASES = {
    **{name: build for name, build in FIXTURE_BUILDERS.items()},
    **{f"{name}_mirror": (lambda build=build: _mirror(build()))
       for name, build in FIXTURE_BUILDERS.items()},
    **{f"su2_{k}": (lambda k=k: su2k(k)) for k in (6, 7, 8)},
    **{f"{name}_gauge{seed}": (lambda build=build, seed=seed: _gauged(build(), seed))
       for name, build in FIXTURE_BUILDERS.items() for seed in (0, 1)},
}


def _dict_gap(got: dict, want: dict) -> float:
    gap = 0.0
    for key in set(got) | set(want):
        a, b = got.get(key), want.get(key)
        a = np.zeros_like(b) if a is None else a
        b = np.zeros_like(a) if b is None else b
        gap = max(gap, float(np.max(np.abs(a - b), initial=0.0)))
    return gap


@pytest.mark.parametrize("name", sorted(REFERENCE_CASES))
def test_contractions_equal_the_tree_reference(name):
    # every closed-form F/R contraction against the tree walk it replaced,
    # on the object before build_annulus validates it (which refuses some
    # gauged fixtures)
    cat = REFERENCE_CASES[name]()
    ring, trees = cat.ring, ref.TreeCalculus(cat)
    rng = np.random.default_rng(0)
    for x in ring.labels:
        got, want = cat.conjugate_solution(x), trees.conjugate_solution(x)
        assert abs(got.r - want.r) < 1e-12 and abs(got.rbar - want.rbar) < 1e-12
        assert abs(got.residual - want.residual) < 1e-12
    for a, b, c in itertools.product(ring.labels, repeat=3):
        for v in np.eye(ring.N(a, b, c)):
            for move in ("bend_left", "bend_right", "conj_pair_basis"):
                got, want = getattr(cat, move)(a, b, c, v), getattr(trees, move)(a, b, c, v)
                assert got.shape == want.shape
                assert np.max(np.abs(got - want), initial=0.0) < 1e-12, (move, a, b, c)
    ann = _assemble(cat, tuple(ring.labels))
    assert _dict_gap(ann.mult, ref.annulus_mult(cat, ring.labels)) < 1e-12
    assert _dict_gap(ann.star, ref.annulus_star(cat, ring.labels)) < 1e-12
    for X in ring.labels:
        sq = ann.square_algebra(X)
        assert np.max(np.abs(sq.P - ref.square_structure_tensor(sq))) < 1e-12
        assert np.max(np.abs(sq.star_mat - ref.square_star_mat(sq))) < 1e-12
        if ann.n(X):
            xi = rng.normal(size=ann.n(X)) + 1j * rng.normal(size=ann.n(X))
            T = sq.random_element(rng)
            assert np.max(np.abs(aref.fiber_action(ann, X, xi, T)
                                 - ref.fiber_action(ann, X, xi, T))) < 1e-12
