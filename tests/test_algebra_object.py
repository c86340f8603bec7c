import copy
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algebra_reference as aref
from utcat.algebra_object import (
    AlgebraObject,
    GroundAlgebra,
    SquareAlgebra,
    group_algebra_object,
    opposite_object,
    pp_check,
    trivial_action_object,
    validate_algebra_object,
    worst_residual,
)
from utcat.annulus import build_annulus
from utcat.coend import CoendAlgebra, GradedElement, norm_sandwich_check
from utcat.errors import DegenerateForm, LabelMismatch, PositivityFailure
from utcat.fixtures import fibonacci, ising, vec_zn

TOL = 1e-10


@pytest.fixture(scope="module")
def fib_ann():
    return build_annulus(fibonacci())


@pytest.fixture(scope="module")
def ising_ann():
    return build_annulus(ising())


@pytest.fixture(scope="module", params=[2, 3, 5])
def group_obj(request):
    return group_algebra_object(vec_zn(request.param))


def _rand(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# --------------------------------------------------------------------------
# validation residuals
# --------------------------------------------------------------------------

def test_group_algebra_validates(group_obj):
    res = validate_algebra_object(group_obj, rng=np.random.default_rng(0))
    assert res["associativity"] < TOL
    assert res["unitality"] < TOL
    assert res["star_involution"] < TOL
    assert res["star_monoidality"] < TOL
    assert res["positivity_floor"] > -TOL


def test_trivial_action_validates_on_opposite_side():
    obj = trivial_action_object(vec_zn(4))
    assert obj.side == "op"
    assert obj.n(obj.cat.ring.unit) == 1  # 𝔸(1) = ℂ, whose centre is trivial
    res = validate_algebra_object(obj, rng=np.random.default_rng(0))
    assert max(res["associativity"], res["star_monoidality"]) < TOL


def test_trivial_action_refuses_nonpointed():
    with pytest.raises(PositivityFailure):
        trivial_action_object(fibonacci())


def test_group_algebra_refuses_nonpointed():
    with pytest.raises(PositivityFailure):
        group_algebra_object(fibonacci())


# a per-tree key (X, Y, Z, v), as products were once keyed; a zero channel;
# an unknown label; a pair
@pytest.mark.parametrize("key", [("g0", "g0", "g0", 0), ("g0", "g1", "g0"),
                                 ("g0", "nope", "g0"), ("g0", "g0")])
def test_a_product_key_that_is_not_a_channel_is_refused(key):
    D = group_algebra_object(vec_zn(3))
    with pytest.raises(LabelMismatch, match="is not a channel"):
        AlgebraObject(D.cat, D.fibers, {**D.mult, key: np.ones((1, 1, 1, 1))}, D.star, D.unit)


def test_a_product_stack_of_the_wrong_shape_is_refused():
    D = group_algebra_object(vec_zn(3))
    key = ("g1", "g1", "g2")
    with pytest.raises(ValueError, match=r"shape \(1, 1, 1\), expected \(1, 1, 1, 1\)"):
        AlgebraObject(D.cat, D.fibers, {**D.mult, key: np.ones((1, 1, 1))}, D.star, D.unit)


@pytest.mark.filterwarnings("error")
def test_the_zero_product_fails_positivity():
    # Tr(L_1) = 0 leaves no canonical trace: the weights refuse it, before
    # any division, and the degenerate ground form reads a positivity floor
    # of −1, not a passing 0
    D = group_algebra_object(vec_zn(3))
    zero = AlgebraObject(D.cat, D.fibers, {}, D.star, D.unit)
    with pytest.raises(DegenerateForm):
        zero.ground().weights
    res = validate_algebra_object(zero)
    assert res["positivity_floor"] == -1.0
    assert res["unitality"] == 1.0


@pytest.mark.parametrize("key", ["associativity", "unitality", "star_involution",
                                 "star_monoidality", "positivity_floor"])
def test_worst_residual_reports_a_nan(key):
    # max(bad, key=bad.get) keeps a NaN only in the first key: with any
    # other residual NaN this read ("positivity_floor", 0.5)
    res = {"associativity": 0.1, "unitality": 0.0, "star_involution": 0.0,
           "star_monoidality": 0.0, "positivity_floor": -0.5}
    res[key] = float("nan")
    got, worst = worst_residual(res)
    assert got == key and np.isnan(worst)


def test_corrupting_mult_is_detected(fib_ann):
    D = copy.copy(fib_ann)
    D.mult = dict(D.mult)
    key = ("tau", "tau", "1")
    D.mult[key] = D.mult[key] + 0.05
    res = validate_algebra_object(D, rng=np.random.default_rng(0))
    assert res["associativity"] > 1e-3 or res["star_monoidality"] > 1e-3


def test_copy_builds_its_own_derived_algebras(fib_ann):
    # the original has cached both; a copy whose mult is replaced must not
    # answer from that cache
    fib_ann.ground(), fib_ann.square_algebra("tau")
    D = copy.copy(fib_ann)
    D.mult = dict(D.mult)
    key = ("1", "1", "1")
    D.mult[key] = 2.0 * D.mult[key]
    assert D.ground() is not fib_ann.ground()
    assert np.array_equal(D.ground().P, D.mult[key][0])
    assert D.square_algebra("tau") is not fib_ann.square_algebra("tau")


def test_derived_algebras_leave_no_reference_cycle():
    # an object and the algebras it derived are freed without the cycle
    # collector, so their arrays do not wait for a full collection
    gc.disable()
    try:
        D = build_annulus(fibonacci())
        pp_check(D, "tau", 5, seed=0)
        aref.fiber_norms(D, "tau", np.ones(D.n("tau")))
        gone = weakref.ref(D)
        del D
        assert gone() is None
    finally:
        gc.enable()


def test_ground_and_square_algebras_are_built_once(fib_ann, monkeypatch):
    built = []
    for cls in (GroundAlgebra, SquareAlgebra):
        def counted(self, *args, _init=cls.__init__):
            built.append(type(self).__name__)
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counted)
    D = copy.copy(fib_ann)
    for seed in range(2):
        pp_check(D, "tau", 2, seed=seed)
        aref.fiber_norms(D, "tau", np.ones(D.n("tau")))
    assert sorted(built) == ["GroundAlgebra", "SquareAlgebra"]
    # a coend of two objects builds one ground algebra per side
    co = CoendAlgebra(opposite_object(D), D)
    for X in co.support:
        norm_sandwich_check(co, GradedElement({X: np.ones(co.dims[X])}))
    assert built.count("GroundAlgebra") == 2


# --------------------------------------------------------------------------
# ground algebra 𝒟(1)
# --------------------------------------------------------------------------

def test_ground_trace_is_tracial_and_unital(fib_ann):
    g = fib_ann.ground()
    rng = np.random.default_rng(2)
    assert g.weights @ fib_ann.unit == pytest.approx(1.0, abs=TOL)
    for _ in range(5):
        x, y = _rand(rng, g.dim), _rand(rng, g.dim)
        assert g.weights @ g.mul(x, y) == pytest.approx(g.weights @ g.mul(y, x), abs=1e-9)


def test_ground_positive_cone(ising_ann):
    g = ising_ann.ground()
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = _rand(rng, g.dim)
        assert aref.is_positive(g, g.mul(g.star(x), x))
    assert g.op_norm(ising_ann.unit) == pytest.approx(1.0, abs=1e-9)


# --------------------------------------------------------------------------
# square algebra 𝒟(X̄⊗X)
# --------------------------------------------------------------------------

@pytest.mark.parametrize("label", ["1", "tau"])
def test_square_algebra_is_associative_on_basis(fib_ann, label):
    sq = fib_ann.square_algebra(label)
    basis = [np.eye(sq.dim)[i] for i in range(sq.dim)]
    for a in basis:
        for b in basis:
            for c in basis:
                lhs = sq.mul(sq.mul(a, b), c)
                rhs = sq.mul(a, sq.mul(b, c))
                assert np.max(np.abs(lhs - rhs)) < TOL


def test_square_algebra_star_and_unit(fib_ann):
    sq = fib_ann.square_algebra("tau")
    rng = np.random.default_rng(4)
    a, b = _rand(rng, sq.dim), _rand(rng, sq.dim)
    one = sq.unit()
    assert np.max(np.abs(sq.mul(one, a) - a)) < TOL
    assert np.max(np.abs(sq.mul(a, one) - a)) < TOL
    assert np.max(np.abs(sq.star(sq.star(a)) - a)) < TOL
    lhs = sq.star(sq.mul(a, b))
    rhs = sq.mul(sq.star(b), sq.star(a))
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(lhs)))


def test_include_ground_is_unital_star_homomorphism(ising_ann):
    sq = ising_ann.square_algebra("psi")
    g = ising_ann.ground()
    rng = np.random.default_rng(5)
    x, y = _rand(rng, g.dim), _rand(rng, g.dim)
    prod = sq.mul(sq.include_ground(x), sq.include_ground(y))
    assert np.max(np.abs(prod - sq.include_ground(g.mul(x, y)))) < 1e-9
    st_ = sq.star(sq.include_ground(x))
    assert np.max(np.abs(st_ - sq.include_ground(g.star(x)))) < 1e-9
    assert np.max(np.abs(sq.unit()
                         - sq.include_ground(ising_ann.unit))) < TOL


# --------------------------------------------------------------------------
# conditional expectation E_X
# --------------------------------------------------------------------------

def test_expectation_splits_the_inclusion(fib_ann):
    sq = fib_ann.square_algebra("tau")
    rng = np.random.default_rng(6)
    x = _rand(rng, fib_ann.n("1"))
    assert np.max(np.abs(sq.expect(sq.include_ground(x)) - x)) < TOL
    assert np.max(np.abs(sq.expect(sq.unit()) - fib_ann.unit)) < TOL


def test_expectation_is_bimodular_and_positive(fib_ann):
    sq = fib_ann.square_algebra("tau")
    g = fib_ann.ground()
    rng = np.random.default_rng(7)
    for _ in range(5):
        T = _rand(rng, sq.dim)
        x, y = _rand(rng, g.dim), _rand(rng, g.dim)
        lhs = sq.expect(sq.mul(sq.mul(sq.include_ground(x), T), sq.include_ground(y)))
        rhs = g.mul(g.mul(x, sq.expect(T)), y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))
        assert aref.is_positive(g, sq.expect(sq.mul(sq.star(T), T)), floor=1e-9)


def test_expectation_gns_oracle(fib_ann):
    # independent oracle: E_X(T) is the compression of left multiplication by
    # T onto the ι(𝒟(1)) corner of the GNS space of tr∘E_X, solved by lstsq
    sq = fib_ann.square_algebra("tau")
    g = fib_ann.ground()
    rng = np.random.default_rng(8)
    n1 = g.dim
    corner = np.stack([sq.include_ground(np.eye(n1)[i])
                       for i in range(n1)], axis=1)          # dim × n1
    phi_gram = np.zeros((n1, n1), dtype=complex)
    for i in range(n1):
        for k in range(n1):
            a = corner[:, i]
            b = corner[:, k]
            phi_gram[i, k] = g.weights @ sq.expect(sq.mul(sq.star(a), b))
    for _ in range(3):
        T = _rand(rng, sq.dim)
        # ⟨ι(e_i), T ι(e_k)⟩_φ = φ(ι(e_i)* T ι(e_k)) = tr(e_i* E(T) e_k)
        rhs = np.zeros((n1, n1), dtype=complex)
        for i in range(n1):
            for k in range(n1):
                a = corner[:, i]
                b = sq.mul(T, corner[:, k])
                rhs[i, k] = g.weights @ sq.expect(sq.mul(sq.star(a), b))
        # solve tr(e_i* c e_k) = rhs for c; the map c -> that matrix is the
        # same Gram transform as phi_gram applied to left-multiplication
        M = np.zeros((n1 * n1, n1), dtype=complex)
        for j in range(n1):
            ej = np.eye(n1)[j]
            blk = np.zeros((n1, n1), dtype=complex)
            for i in range(n1):
                for k in range(n1):
                    blk[i, k] = g.weights @ g.mul(g.star(np.eye(n1)[i]),
                                                  g.mul(ej, np.eye(n1)[k]))
            M[:, j] = blk.reshape(-1)
        c, *_ = np.linalg.lstsq(M, rhs.reshape(-1), rcond=None)
        assert np.max(np.abs(c - sq.expect(T))) < 1e-8


# --------------------------------------------------------------------------
# fiber inner products and the right module structure
# --------------------------------------------------------------------------

def test_fiber_inner_product_is_sesquilinear(fib_ann):
    rng = np.random.default_rng(9)
    n = fib_ann.n("1")
    a, b, c = (_rand(rng, n) for _ in range(3))
    lam = 0.3 - 1.2j
    lhs = aref.fiber_inner_product(fib_ann, "1", a, lam * b + c)
    rhs = lam * aref.fiber_inner_product(fib_ann, "1", a, b) \
        + aref.fiber_inner_product(fib_ann, "1", a, c)
    assert np.max(np.abs(lhs - rhs)) < 1e-9
    anti = aref.fiber_inner_product(fib_ann, "1", lam * a, b)
    base = aref.fiber_inner_product(fib_ann, "1", a, b)
    assert np.max(np.abs(anti - np.conj(lam) * base)) < 1e-9



def test_fiber_gram_is_positive_definite(ising_ann):
    g = ising_ann.ground()
    for X in ising_ann.support:
        G = ising_ann.fiber_gram(X)
        nx = ising_ann.n(X)
        for i in range(nx):
            val = G[i, i]
            assert aref.is_positive(g, val, floor=1e-9)
            assert (g.weights @ val).real > 1e-9  # nondegenerate


def test_right_module_axioms(fib_ann):
    D = fib_ann
    g = D.ground()
    rng = np.random.default_rng(10)
    for X in D.support:
        sq = D.square_algebra(X)
        xi = _rand(rng, D.n(X))
        eta = _rand(rng, D.n(X))
        T, S = _rand(rng, sq.dim), _rand(rng, sq.dim)
        x = _rand(rng, g.dim)
        # unit acts as identity
        one = aref.fiber_action(D, X, xi, sq.unit())
        assert np.max(np.abs(one - xi)) < TOL
        # associativity over the square algebra product
        lhs = aref.fiber_action(D, X, aref.fiber_action(D, X, xi, T), S)
        rhs = aref.fiber_action(D, X, xi, sq.mul(T, S))
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))
        # ⟨ξ, η ◁ ι(x)⟩ = ⟨ξ, η⟩·x
        lhs = aref.fiber_inner_product(
            D, X, xi, aref.fiber_action(D, X, eta, sq.include_ground(x)))
        rhs = g.mul(aref.fiber_inner_product(D, X, xi, eta), x)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))
        # ⟨ξ ◁ T*, η⟩ = ⟨ξ, η ◁ T⟩
        lhs = aref.fiber_inner_product(
            D, X, aref.fiber_action(D, X, xi, sq.star(T)), eta)
        rhs = aref.fiber_inner_product(D, X, xi, aref.fiber_action(D, X, eta, T))
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, np.max(np.abs(rhs)))


def test_fiber_norms_sandwich(fib_ann):
    rng = np.random.default_rng(11)
    for X in fib_ann.support:
        module, operator = aref.fiber_norms(fib_ann, X,
                                            _rand(rng, fib_ann.n(X)))
        d = fib_ann.cat.d(X)
        assert module <= operator * (1 + 1e-9)
        assert operator <= d * module * (1 + 1e-9)


def test_fiber_norms_coincide_for_invertible_labels():
    D = group_algebra_object(vec_zn(5))
    for X in D.support:
        module, operator = aref.fiber_norms(D, X, np.array([1.0 + 0.5j]))
        assert module == pytest.approx(operator, rel=1e-9)


# --------------------------------------------------------------------------
# Pimsner–Popa sandwich
# --------------------------------------------------------------------------

def test_pp_sandwich_smoke(fib_ann):
    report = pp_check(fib_ann, "tau", samples=50, seed=123)
    assert report["violations"] == 0
    assert report["bound"] == pytest.approx(fib_ann.cat.d("tau") ** 2, abs=1e-9)
    assert report["max_ratio"] <= report["bound"] + 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_pp_single_samples_hold_for_pointed(seed):
    D = group_algebra_object(vec_zn(3))
    report = pp_check(D, "g1", samples=3, seed=seed)
    # invertible corner: expectation is norm-preserving on positives, d² = 1
    assert report["max_ratio"] <= 1.0 + 1e-8
