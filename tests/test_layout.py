"""Elements of 𝒟(A⊗B) as vectors on one layout: the conjugation matrix, the
lax product, the expectation and the fiber Gram against the dict kernels they
replaced, the stacked associativity check against its per-tree form, and the
label checks of the library entry points.

The kernels are compared on the annuli of every registry fixture, its
mirror, SU(2)_6 and two random vertex gauges, and on random objects over the
multiplicity-2 ring and over Vec(ℤ/3), whose labels g1, g2 are not
self-dual; each also over the opposite category."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

import algebra_reference as ref
from test_annulus import _gauged, _mirror
from utcat.algebra_object import (AlgebraObject, _associativity, _rand, opposite_object,
                                  pp_check, validate_algebra_object, worst_residual)
from utcat import io_schemas as io
from utcat.annulus import _assemble, build_annulus
from utcat.basis_change import relabel_category
from utcat.errors import DegenerateForm, UnknownLabel
from utcat.fixtures import FIXTURE_BUILDERS, fibonacci, mult2_ring, random_blocks, su2k
from utcat.gns import FAITHFUL_FLOOR, form

TOL = 1e-12


def _annulus(cat):
    # assembled without the validation of build_annulus, which refuses some
    # gauged fixtures
    return _assemble(cat, tuple(cat.ring.labels))


def _random_object(cat, seed):
    """Seeded random fibers, products and stars over ``cat``: not an algebra,
    but every multiplicity index of every product is populated."""
    ring, rng = cat.ring, np.random.default_rng(seed)

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    n = {X: int(rng.integers(1, 4)) for X in ring.labels}
    mult = {(X, Y, Z): np.array([rand(n[Z], n[X], n[Y]) for _ in range(nv)])
            for X, Y in itertools.product(ring.labels, repeat=2)
            for Z, nv in ring.channels(X, Y)}
    star = {X: rand(n[ring.dual[X]], n[X]) for X in ring.labels}
    return AlgebraObject(cat, n, mult, star, rand(n[ring.unit]))


def dual_numbers(cat):
    """ℂ[x]/(x²) on the unit fiber of ``cat``, x* = x: unital, associative
    and *-closed, but its trace form diag(1, 0) is singular."""
    u = cat.ring.unit
    P = np.zeros((2, 2, 2), dtype=complex)
    P[0, 0, 0] = P[1, 0, 1] = P[1, 1, 0] = 1.0
    return AlgebraObject(cat, {u: 2}, {(u, u, u): P[None]}, {u: np.eye(2, dtype=complex)},
                         np.array([1.0, 0.0], dtype=complex))


CASES = {
    **{name: (lambda build=build: _annulus(build())) for name, build in FIXTURE_BUILDERS.items()},
    **{f"{name}_mirror": (lambda build=build: _annulus(_mirror(build())))
       for name, build in FIXTURE_BUILDERS.items()},
    "su2_6": lambda: _annulus(su2k(6)),
    **{f"{name}_gauge{seed}": (lambda build=build, seed=seed: _annulus(_gauged(build(), seed)))
       for name, build in FIXTURE_BUILDERS.items() for seed in (0, 1)},
    "mult2_random": lambda: _random_object(random_blocks(mult2_ring(), 0), 0),
    "vec_z3_random": lambda: _random_object(FIXTURE_BUILDERS["vec_z3"](), 1),
}


@pytest.fixture(scope="module", params=[(name, side) for name in sorted(CASES)
                                         for side in ("cat", "op")],
                ids=lambda p: f"{p[0]}-{p[1]}")
def obj(request):
    name, side = request.param
    D = CASES[name]()
    return D if side == "cat" else opposite_object(D)


def _rand(rng, n):
    return rng.normal(size=n) + 1j * rng.normal(size=n)


def _gap(a, b) -> float:
    return float(np.max(np.abs(a - b), initial=0.0))


def test_associativity_equals_the_per_tree_reference(obj):
    got = _associativity(obj, np.random.default_rng(0))
    assert abs(got - ref.associativity(obj)) <= TOL


@pytest.mark.parametrize("name", ["mult2_random", "vec_z3_random"])
def test_validation_reports_a_degenerate_ground_trace_form(name):
    # 𝒟(1) of these objects has no GNS space; validation still reports all
    # five residuals, with the positivity floor at most −1, or the trace
    # form's margin to the faithful floor if lower
    D = CASES[name]()
    g = D.ground()
    with pytest.raises(DegenerateForm) as err:
        g.gns
    lam = np.linalg.eigvalsh(form(g.P, g.star_mat, g.weights))
    assert err.value.margin == pytest.approx(
        lam[0] - FAITHFUL_FLOOR * max(lam[-1], 1.0), rel=1e-12, abs=1e-12)
    res = validate_algebra_object(D, rng=np.random.default_rng(0))
    assert res["positivity_floor"] == min(err.value.margin, -1.0)
    assert res["associativity"] == _associativity(D, np.random.default_rng(0)) > 1e-3
    assert min(res["unitality"], res["star_involution"], res["star_monoidality"]) > 1e-3


def test_a_singular_positive_ground_trace_form_fails_validation():
    # ℂ[x]/(x²) passes the four algebraic checks, and its trace form is
    # positive semidefinite: its margin to the faithful floor is only
    # −1e-12, yet positivity must fail at any tolerance
    D = dual_numbers(FIXTURE_BUILDERS["vec_z3"]())
    with pytest.raises(DegenerateForm) as err:
        D.ground().gns
    assert -1e-11 < err.value.margin <= 0
    res = validate_algebra_object(D, rng=np.random.default_rng(0))
    assert max(res["associativity"], res["unitality"], res["star_involution"],
               res["star_monoidality"]) < TOL
    assert res["positivity_floor"] == -1.0
    assert worst_residual(res) == ("positivity_floor", 1.0)


def test_multiplicity_two_products_survive_a_json_round_trip_bit_for_bit():
    # one plane per tree on the wire, scattered back into its slot of the
    # channel's stack; N = 2 channels included
    D = CASES["mult2_random"]()
    assert any(len(m) == 2 for m in D.mult.values())
    again = io.aobj_from_json(D.cat, json.loads(json.dumps(io.aobj_to_json(D))))
    assert again.mult.keys() == D.mult.keys()
    for key, m in D.mult.items():
        got = again.mult[key]
        assert got.shape == m.shape and got.tobytes() == m.tobytes(), key


@pytest.mark.parametrize("name", ["fib", "su2_3"])
def test_associativity_detects_one_scaled_product_entry(name):
    # the largest entry of the first product with no unit leg, times 1 + 1e-3
    tol = 1e-9
    ann = build_annulus(FIXTURE_BUILDERS[name]())
    unit = ann.cat.ring.unit
    key = min(k for k in ann.mult if unit not in k[:2])
    M = ann.mult[key].copy()
    M[np.unravel_index(np.argmax(np.abs(M)), M.shape)] *= 1 + 1e-3
    D = dataclasses.replace(ann, mult={**ann.mult, key: M})
    assert validate_algebra_object(D, tol=tol)["associativity"] > tol
    assert ref.associativity(D) > tol


def test_conj_matrix_equals_the_reference(obj):
    # every column: the conjugate of one basis vector of one summand
    labels = obj.cat.ring.labels
    for A, B in itertools.product(labels, repeat=2):
        src = obj.layout(A, B)
        dst = obj.layout(obj.cat.dual(B), obj.cat.dual(A))
        C = obj.conj_matrix(A, B)
        assert C.shape == (dst.dim, src.dim)
        for (Z, v), sl in src.slices.items():
            for k, e in zip(range(sl.start, sl.stop), np.eye(obj.n(Z))):
                want = ref.flatten(dst, ref.conjugate_distributed(obj, {(Z, v): e}, (A, B)))
                assert _gap(C[:, k], want) < TOL, (A, B, Z, v)


def test_lax_product_and_expectation_equal_the_reference(obj):
    rng = np.random.default_rng(0)
    for X, Y in itertools.product(obj.support, repeat=2):
        xi, eta = _rand(rng, obj.n(X)), _rand(rng, obj.n(Y))
        got = obj.lax_product(X, Y, xi, eta)
        assert _gap(got, ref.flatten(obj.layout(X, Y), ref.lax_product(obj, X, Y, xi, eta))) < TOL
    for X in obj.support:
        sq = obj.square_algebra(X)
        T = _rand(rng, sq.dim)
        want = ref.cond_expect_component(obj, X, ref.split(sq.layout, T))
        assert _gap(sq.expect(T), want) < TOL


def test_fiber_gram_equals_the_reference(obj):
    for X in obj.support:
        got, want = obj.fiber_gram(X), ref.fiber_gram(obj, X)
        assert got.shape == want.shape
        assert _gap(got, want) < TOL


def test_a_label_named_ground_is_a_square_algebra():
    # the derived-data cache once keyed 𝒟(1) by "ground" and 𝒟(X̄⊗X) by X
    D = build_annulus(relabel_category(fibonacci(), {"tau": "ground"}))
    assert D.square_algebra("ground").X == "ground"
    got = pp_check(D, "ground", 5)
    want = pp_check(build_annulus(fibonacci()), "tau", 5)
    assert got["max_ratio"] == pytest.approx(want["max_ratio"], abs=TOL)
    assert got["bound"] == pytest.approx(want["bound"], abs=TOL)


ENTRY_POINTS = {
    "pp_check": lambda D: pp_check(D, "nope", 2),
    "square_algebra": lambda D: D.square_algebra("nope"),
    "fiber_gram": lambda D: D.fiber_gram("nope"),
    # the inner product, the right action and the fiber norms live in the
    # test reference now, which reads these through the entry points above
    "fiber_inner_product": lambda D: ref.fiber_inner_product(
        D, "nope", np.ones(1), np.ones(1)),
    "fiber_action": lambda D: ref.fiber_action(D, "nope", np.ones(1),
                                               np.ones(1)),
    "fiber_norms": lambda D: ref.fiber_norms(D, "nope", np.ones(1)),
    "layout_left": lambda D: D.layout("nope", "tau"),
    "layout_right": lambda D: D.layout("tau", "nope"),
    "lax_product": lambda D: D.lax_product("tau", "nope", np.ones(1), np.ones(1)),
    "conj_matrix": lambda D: D.conj_matrix("nope", "tau"),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_unknown_label_is_refused(entry):
    D = build_annulus(fibonacci())
    with pytest.raises(UnknownLabel):
        ENTRY_POINTS[entry](D)
