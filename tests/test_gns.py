"""GNS forms, their factorization and rank cuts against the per-entry loops
and `inv`-based norms they replaced, on every bundled annulus, two rotated
annuli with complex structure constants, and the crossed products
Vec(ℤ/n) ⋊ ℂ[ℤ/n]."""

import numpy as np
import pytest

import algebra_reference as aref
from test_coend import _rotated
from utcat.algebra_object import (
    _rand,
    group_algebra_object,
    opposite_object,
    pp_check,
    trivial_action_object,
    validate_algebra_object,
)
from utcat.annulus import build_annulus, z_state
from utcat.coend import CoendAlgebra
from utcat.errors import DegenerateForm, SolveFailed
from utcat.fixtures import FIXTURE_BUILDERS, vec_zn
from utcat.gns import GramRoot, form, rank_cut
from utcat.inclusion import discreteness_report, gns_object

TOL = 1e-12


def _rel(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    return float(np.max(np.abs(new - ref), initial=0.0)
                 / max(float(np.max(np.abs(ref), initial=0.0)), 1.0))


# -- the per-entry references ------------------------------------------------

def _ref_trace(g, x):
    return complex(np.trace(g.left_mult(x)) / np.trace(g.left_mult(g.unit)))


def _ref_ground_gram(g):
    e = np.eye(g.dim)
    G = np.array([[_ref_trace(g, g.mul(g.star(e[i]), e[k]))
                   for k in range(g.dim)] for i in range(g.dim)])
    return (G + G.conj().T) / 2.0


def _ref_square_gram(sq):
    g = sq.D.ground()
    basis = list(np.eye(sq.dim))
    G = np.array([[_ref_trace(g, sq.expect(sq.mul(sq.star(a), b)))
                   for b in basis] for a in basis])
    return (G + G.conj().T) / 2.0


def _ref_state_gram(g, omega):
    e = np.eye(g.dim)
    Q = np.array([[omega @ g.mul(g.star(e[i]), e[k]) for k in range(g.dim)]
                  for i in range(g.dim)])
    return (Q + Q.conj().T) / 2.0


def _ref_descend_kernel(co, omega):
    wA = np.array([_ref_trace(co.A.ground(), e)
                   for e in np.eye(co.A.ground().dim)])
    n1 = co.A.n(co.cat.ring.unit), co.B.n(co.cat.ring.unit)
    els = [(T, co.star(T)) for _, _, T in aref.coend_basis(co)]
    K = np.array([[wA @ (co.canonical_expectation(co.mul(si, tj))
                         .reshape(n1) @ omega)
                   for tj, _ in els] for _, si in els])
    return (K + K.conj().T) / 2.0


def _sqrt(G):
    w, U = np.linalg.eigh(G)
    return (U * np.sqrt(w)) @ U.conj().T


def _ref_norm(G, L):
    S = _sqrt(G)
    return float(np.linalg.norm(S @ L @ np.linalg.inv(S), 2))


def _ref_positivity_floor(D):
    g = D.ground()
    S = _sqrt(_ref_ground_gram(g))
    Sinv = np.linalg.inv(S)
    floor = 0.0
    for X in D.support:
        nx = D.n(X)
        G = D.fiber_gram(X)
        big = np.zeros((nx * g.dim, nx * g.dim), dtype=complex)
        for i in range(nx):
            for k in range(nx):
                big[i * g.dim:(i + 1) * g.dim, k * g.dim:(k + 1) * g.dim] = \
                    S @ g.left_mult(G[i, k]) @ Sinv
        big = (big + big.conj().T) / 2.0
        floor = min(floor, float(np.min(np.linalg.eigvalsh(big))))
    return floor


def _ref_pp_check(D, X, samples, seed):
    sq, g = D.square_algebra(X), D.ground()
    Gs, Gg = _ref_square_gram(sq), _ref_ground_gram(g)
    dsq = D.cat.d(X) ** 2
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    for _ in range(samples):
        s = _rand(rng, sq.dim)
        T = sq.mul(sq.star(s), s)
        nT = _ref_norm(Gs, sq.left_mult(T))
        nE = _ref_norm(Gg, g.left_mult(sq.expect(T)))
        if nE > 0:
            worst_ratio = max(worst_ratio, nT / nE)
    return {"X": X, "samples": samples, "seed": seed, "max_ratio": worst_ratio,
            "bound": dsq, "violations": 0}


def _ref_gns_object(D, omega):
    dims, forms = {}, {}
    for K in D.support:
        Q = np.einsum("ikz,z->ik", D.fiber_gram(K), omega)
        w = np.linalg.eigvalsh((Q + Q.conj().T) / 2)
        keep = w > 1e-10 * max(float(np.max(np.abs(w))), 1e-300)
        if keep.any():
            dims[K] = int(keep.sum())
            forms[K] = (Q + Q.conj().T) / 2
    return dims, forms


# -- the cases -----------------------------------------------------------------

def _annulus_case(name, rotate=False):
    ann = build_annulus(FIXTURE_BUILDERS[name]())
    if rotate:
        ann = _rotated(ann, seed=7)
    return CoendAlgebra(opposite_object(ann), ann)


def _crossed_case(n):
    cat = vec_zn(n)
    return CoendAlgebra(trivial_action_object(cat),
                        group_algebra_object(cat))


CASES = {
    **{f"annulus-{name}": (lambda name=name: _annulus_case(name))
       for name in FIXTURE_BUILDERS},
    "rotated-annulus-fib": lambda: _annulus_case("fib", rotate=True),
    "rotated-annulus-vec_z3": lambda: _annulus_case("vec_z3", rotate=True),
    **{f"crossed-vec_z{n}": (lambda n=n: _crossed_case(n)) for n in range(2, 7)},
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return request.param, CASES[request.param]()


def _states(name, g):
    """The canonical trace, the skewed trace ω(x) = tr(h·x)/tr(h) for a
    seeded h = b*b, and on an unrotated annulus its Z-state."""
    rng = np.random.default_rng(1)
    b = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
    h = g.mul(g.star(b), b)
    skewed = np.einsum("z,zyx,y->x", g.weights, g.P, h)
    omegas = [g.weights, skewed / (skewed @ g.unit)]
    if name.startswith("annulus"):
        omegas.append(z_state(g.D)["omega"])
    return omegas


def test_ground_forms_and_norms_match_the_reference(case):
    name, co = case
    rng = np.random.default_rng(3)
    for D in (co.A, co.B):
        g = D.ground()
        G = _ref_ground_gram(g)
        assert _rel(form(g.P, g.star_mat, g.weights), G) < TOL
        assert _rel(g.gns.half, _sqrt(G)) < TOL
        assert _rel(g.gns.half @ g.gns.inv_half, np.eye(g.dim)) < TOL
        for _ in range(3):
            x = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
            assert _rel(g.op_norm(x), _ref_norm(G, g.left_mult(x))) < TOL
            assert aref.is_positive(g, g.mul(g.star(x), x))
        for omega in _states(name, g):
            _, ev = g.check_state(omega)
            assert _rel(ev, np.linalg.eigvalsh(_ref_state_gram(g, omega))) < TOL


def test_square_forms_and_norms_match_the_reference(case):
    _, co = case
    rng = np.random.default_rng(5)
    for X in co.B.support:
        sq = co.B.square_algebra(X)
        G = _ref_square_gram(sq)
        assert _rel(sq.gns.half @ sq.gns.half, G) < TOL
        assert _rel(sq.gns.half, _sqrt(G)) < TOL
        for _ in range(2):
            a = _rand(rng, sq.dim)
            assert _rel(sq.op_norm(a), _ref_norm(G, sq.left_mult(a))) < TOL


def test_positivity_floor_and_pp_check_match_the_reference(case):
    _, co = case
    D = co.B
    floor = validate_algebra_object(D)["positivity_floor"]
    assert abs(floor - _ref_positivity_floor(D)) < TOL
    for X in D.support:
        rep, ref = pp_check(D, X, 3, seed=11), _ref_pp_check(D, X, 3, seed=11)
        assert _rel(rep.pop("max_ratio"), ref.pop("max_ratio")) < TOL
        assert rep == ref


def test_module_gram_and_descend_kernel_match_the_reference(case):
    name, co = case
    assert _rel(co.gram(), _ref_descend_kernel(co, co.B.ground().weights)) < TOL
    assert _rel(co.gns.half, _sqrt(co.gram())) < TOL
    for omega in _states(name, co.B.ground()):
        K = co._form(np.kron(co.A.ground().weights, omega))
        assert _rel(K, _ref_descend_kernel(co, omega)) < TOL


def test_gns_object_matches_the_reference(case):
    name, co = case
    for omega in _states(name, co.B.ground()):
        hobj, cuts = gns_object(co.B, omega)
        dims, forms = _ref_gns_object(co.B, omega)
        assert hobj.dims == dims
        assert {K for K, c in cuts.items() if c.rank} == set(forms)
        for K, form_K in forms.items():
            # the cut factors the form: F·F* = Q up to the cut
            F = cuts[K].factor
            assert _rel(F @ F.conj().T, form_K) < 1e-10


# -- the factorization and the cut -------------------------------------------

def test_rank_deficient_gram_is_refused():
    rng = np.random.default_rng(0)
    V = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    with pytest.raises(SolveFailed, match="planted form is degenerate"):
        GramRoot(V @ V.conj().T, "planted form")
    GramRoot(V.conj().T @ V)  # the faithful form is accepted


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_a_non_finite_form_is_refused(bad):
    G = np.eye(2, dtype=complex)
    G[1, 1] = bad
    with pytest.raises(DegenerateForm):
        GramRoot(G)
    with pytest.raises(DegenerateForm):
        GramRoot(np.full((2, 2), bad))


def test_rank_cut_reports_its_gap():
    Q = np.diag([2.0, 1.0, 1e-13, 0.0])
    cut = rank_cut(Q)
    assert cut.rank == 2
    assert cut.gap == (1.0, 1e-13)
    assert _rel(cut.factor @ cut.factor.conj().T, np.diag([2.0, 1.0, 0, 0])) < TOL
    assert rank_cut(np.eye(3)).gap is None


def test_discreteness_report_carries_the_cut_gap():
    # the trace state is faithful; the character χ₊ kills one direction
    ann = build_annulus(vec_zn(2))
    assert discreteness_report(ann, np.array([1.0, 0.0]))["gns_cut_gap"] is None
    rep = discreteness_report(ann, np.array([1.0, 1.0]))
    assert rep["gns_dims"] == {"g0": 1}
    kept, dropped = rep["gns_cut_gap"]
    assert abs(kept - 2.0) < TOL and abs(dropped) < TOL
