import dataclasses
import itertools

import numpy as np
import pytest

from algebra_reference import coend_basis
from utcat.algebra_object import (
    AlgebraObject,
    group_algebra_object,
    opposite_object,
    trivial_action_object,
    validate_algebra_object,
)
from utcat.annulus import build_annulus
from utcat.coend import (
    CoendAlgebra,
    GradedElement,
    _probe_grams,
    faithfulness_probe,
    norm_sandwich_check,
)
from utcat.errors import (
    CounterexampleFound,
    LabelMismatch,
    SupportOverflow,
    SupportTooSmall,
    UnknownLabel,
)
from utcat.fixtures import fibonacci, ising, vec_zn
from utcat.gns import GramRoot

PHI = (1.0 + np.sqrt(5.0)) / 2.0


@pytest.fixture(scope="module", params=[2, 3, 5])
def zn_cross(request):
    cat = vec_zn(request.param)
    return CoendAlgebra(trivial_action_object(cat),
                        group_algebra_object(cat))


@pytest.fixture(scope="module")
def fib_coend():
    ann = build_annulus(fibonacci())
    return CoendAlgebra(opposite_object(ann), ann)


def _vacuum(co) -> GradedElement:
    """Ω = 1_𝔸 ⊗ 1_𝔹 in the unit grade, which as an operator is the unit."""
    return GradedElement({co.cat.ring.unit: np.outer(co.A.unit, co.B.unit).ravel()})


BRAIDED = {"fib": fibonacci, "ising": ising,
           **{f"vec_z{n}": (lambda n=n: vec_zn(n)) for n in range(2, 6)}}


def _annulus_coend(name):
    ann = build_annulus(BRAIDED[name]())
    return CoendAlgebra(opposite_object(ann), ann)


@pytest.fixture(scope="module",
                params=["fib", "ising", "vec_z2", "vec_z3", "vec_z4"])
def braided_annulus(request):
    return _annulus_coend(request.param)


def _delta(co, g):
    e = np.zeros(co.dims[g])
    e[0] = 1.0
    return GradedElement({g: e})


def test_sides_are_checked():
    cat = vec_zn(2)
    ga = group_algebra_object(cat)  # side "cat"
    with pytest.raises(LabelMismatch):
        CoendAlgebra(ga, ga)


def test_crossed_product_is_the_group_algebra(zn_cross):
    # δ_g · δ_h = δ_{g+h} with coefficient exactly 1 — the group table
    co = zn_cross
    n = len(co.support)
    for i in range(n):
        for j in range(n):
            prod = co.mul(_delta(co, f"g{i}"), _delta(co, f"g{j}"))
            assert list(prod.comps) == [f"g{(i + j) % n}"]
            val = prod.comps[f"g{(i + j) % n}"]
            assert abs(val[0] - 1.0) < 1e-12 and val.shape == (1,)


def test_expectation_is_the_identity_coefficient(zn_cross):
    co = zn_cross
    rng = np.random.default_rng(4)
    T = co.random_element(rng)
    e = co.canonical_expectation(T)
    assert np.allclose(e, T.comps["g0"], atol=1e-13)


def test_group_difference_has_nonzero_mass():
    cat = vec_zn(3)
    co = CoendAlgebra(trivial_action_object(cat), group_algebra_object(cat))
    T = GradedElement({"g1": [1.0], "g2": [-1.0]})
    e = co.canonical_expectation(co.mul(co.star(T), T))
    # 𝔼((δ_g − δ_h)*(δ_g − δ_h)) = 2·1 for g ≠ h
    assert abs(e[0] - 2.0) < 1e-12


def _assert_star_homomorphism(co):
    rng = np.random.default_rng(11)
    S = co.gns.half
    Si = np.linalg.inv(S)
    for _ in range(5):
        T, U = co.random_element(rng), co.random_element(rng)
        MT = S @ co.act_matrix(T) @ Si
        MU = S @ co.act_matrix(U) @ Si
        MTU = S @ co.act_matrix(co.mul(T, U)) @ Si
        Mst = S @ co.act_matrix(co.star(T)) @ Si
        assert np.max(np.abs(MTU - MT @ MU)) < 1e-9
        assert np.max(np.abs(Mst - MT.conj().T)) < 1e-9


def _assert_bimodular(co):
    rng = np.random.default_rng(5)
    unit = co.cat.ring.unit
    for _ in range(5):
        T = co.random_element(rng)
        g = GradedElement({unit: rng.normal(size=co.dims[unit])
                           + 1j * rng.normal(size=co.dims[unit])})
        h = GradedElement({unit: rng.normal(size=co.dims[unit])
                           + 1j * rng.normal(size=co.dims[unit])})
        lhs = co.canonical_expectation(co.mul(co.mul(g, T), h))
        inner = GradedElement({unit: co.canonical_expectation(T)})
        rhs = co.canonical_expectation(co.mul(co.mul(g, inner), h))
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def _assert_cyclic_vacuum(co):
    cols = [co.flatten(co.mul(T, _vacuum(co)))
            for _, _, T in coend_basis(co)]
    V = np.stack(cols, axis=1)
    assert np.linalg.matrix_rank(V, tol=1e-10) == co.total_dim


def _assert_unit_sandwich_collapses(co, seed, samples):
    rng = np.random.default_rng(seed)
    unit = co.cat.ring.unit
    for _ in range(samples):
        T = GradedElement({unit: rng.normal(size=co.dims[unit])
                           + 1j * rng.normal(size=co.dims[unit])})
        rep = norm_sandwich_check(co, T)
        assert rep["left_ok"] and rep["right_ok"]
        assert abs(rep["op_norm"] - rep["vacuum_norm"]) < 1e-9


@pytest.mark.parametrize("which", ["zn", "fib"])
def test_action_is_a_star_homomorphism(which, zn_cross, fib_coend):
    _assert_star_homomorphism(zn_cross if which == "zn" else fib_coend)


def test_grading_respects_fusion(fib_coend):
    co = fib_coend
    ring = co.cat.ring
    for X, _, T in coend_basis(co):
        for Y, _, U in coend_basis(co):
            prod = co.mul(T, U)
            for Z in prod.comps:
                assert ring.N(X, Y, Z) > 0


def test_expectation_is_bimodular(fib_coend):
    _assert_bimodular(fib_coend)


def test_vacuum_is_cyclic(fib_coend, zn_cross):
    for co in (fib_coend, zn_cross):
        _assert_cyclic_vacuum(co)


def test_module_gram_is_positive_definite(fib_coend, zn_cross):
    for co in (fib_coend, zn_cross):
        assert np.min(np.linalg.eigvalsh(co.gram())) > 1e-8


# -- the same properties on the annulus of every braided fixture -------------

def test_annulus_action_is_a_star_homomorphism(braided_annulus):
    _assert_star_homomorphism(braided_annulus)


def test_annulus_expectation_is_bimodular(braided_annulus):
    _assert_bimodular(braided_annulus)


def test_annulus_vacuum_is_cyclic(braided_annulus):
    _assert_cyclic_vacuum(braided_annulus)


def test_annulus_gram_is_positive_definite(braided_annulus):
    assert np.min(np.linalg.eigvalsh(braided_annulus.gram())) > 1e-8


def test_annulus_sandwich_collapses_at_the_unit_grade(braided_annulus):
    _assert_unit_sandwich_collapses(braided_annulus, 21, 5)


# -- norm sandwich ----------------------------------------------------------

def test_sandwich_collapses_at_the_unit_grade(fib_coend):
    _assert_unit_sandwich_collapses(fib_coend, 21, 10)


def test_sandwich_collapses_for_invertible_grades(zn_cross):
    rng = np.random.default_rng(22)
    for X in zn_cross.support:
        for _ in range(5):
            T = GradedElement({X: rng.normal(size=1) + 1j * rng.normal(size=1)})
            rep = norm_sandwich_check(zn_cross, T)
            assert rep["left_ok"] and rep["right_ok"]
            assert abs(rep["op_norm"] - rep["vacuum_norm"]) < 1e-9


def test_sandwich_fibonacci_tau_ratio(fib_coend):
    rng = np.random.default_rng(23)
    for _ in range(20):
        T = GradedElement({"tau": rng.normal(size=1) + 1j * rng.normal(size=1)})
        rep = norm_sandwich_check(fib_coend, T)
        ratio = rep["op_norm"] / rep["vacuum_norm"]
        assert 1.0 - 1e-8 <= ratio <= PHI**2 + 1e-8


def test_sandwich_rejects_inhomogeneous(fib_coend):
    T = GradedElement({X: _delta(fib_coend, X).comps[X] for X in ("1", "tau")})
    with pytest.raises(LabelMismatch):
        norm_sandwich_check(fib_coend, T)


# -- faithfulness -----------------------------------------------------------

def test_faithfulness_probe(zn_cross):
    rep = faithfulness_probe(zn_cross, 50, seed=2)
    assert rep["failures"] == 0
    assert rep["cyclic_rank"] == rep["expected_rank"]
    assert rep["vacuum_gram_floor"] > 0


def test_faithfulness_probe_fibonacci(fib_coend):
    rep = faithfulness_probe(fib_coend, 100, seed=9)
    assert rep["failures"] == 0
    assert rep["cyclic_rank"] == rep["expected_rank"] == fib_coend.total_dim


# -- supports ---------------------------------------------------------------

@pytest.mark.parametrize("n, S, missing", [
    (4, ("g0", "g1"), ["g2", "g3"]),   # g1⊗g1 = g2 and ḡ1 = g3 leave S
    (4, ("g0", "g1", "g3"), ["g2"]),   # dual-closed, not fusion-closed
    (3, ("g0", "g1"), ["g2"]),         # ḡ1 = g2 = g1⊗g1
    (2, ("g1",), ["g0"]),              # no unit
], ids=["z4-g1", "z4-g1-g3", "z3-g1", "z2-no-unit"])
def test_a_support_that_is_not_closed_is_refused(n, S, missing):
    with pytest.raises(SupportTooSmall) as exc:
        _crossed(n, S)
    assert exc.value.missing == missing


def test_an_unknown_support_label_is_refused():
    # the label the ring lacks is named, not dropped from the support
    with pytest.raises(UnknownLabel, match="g9"):
        _crossed(4, ("g0", "g2", "g9"))


def test_the_support_counts_only_grades_with_a_fiber_on_both_sides():
    # the annulus of Vec(Z4) has a fiber only at g0, so a support that names
    # g1 is the whole grading, without the channels of g1
    ann = build_annulus(vec_zn(4))
    co = CoendAlgebra(opposite_object(ann), ann, S=("g0", "g1"))
    full = CoendAlgebra(opposite_object(ann), ann)
    assert co.support == full.support == ("g0",)
    assert np.array_equal(co._action.M, full._action.M)


# -- channel tensors against the per-channel einsum reference ----------------
# The kernels below are the earlier per-basis-vector implementation, kept
# only as references: one 4-operand einsum per channel per product, one
# triangle action per column of an acting matrix, a double loop per Gram
# block and a trace per entry of the operator Gram.

def _ref_shape(co, X, vec):
    return np.asarray(vec, dtype=complex).reshape(co.A.n(X), co.B.n(X))


def _ref_component_product(co, X0, X1, m0, m1):
    ring = co.cat.ring
    out = {}
    for X2 in ring.labels:
        nch = ring.N(X0, X1, X2)
        if nch == 0 or co.A.n(X2) == 0 or co.B.n(X2) == 0:
            continue
        assert X2 in co.support, f"{X2} of {X0}⊠{X1} outside the support"
        acc = np.zeros((co.A.n(X2), co.B.n(X2)), dtype=complex)
        for v in range(nch):
            acc += np.einsum("aij,bkl,ik,jl->ab", co.A.mu(X0, X1, X2)[v],
                             co.B.mu(X0, X1, X2)[v], m0, m1)
        if np.any(acc):
            out[X2] = acc
    return out


def _ref_triangle_act(co, T, xi):
    out = {}
    for X0, t in T.comps.items():
        for X1, x in xi.comps.items():
            for X2, acc in _ref_component_product(
                    co, X0, X1, _ref_shape(co, X0, t), _ref_shape(co, X1, x)).items():
                out[X2] = out.get(X2, 0.0) + acc.reshape(-1)
    return GradedElement(out)


def _ref_act_matrix(co, T):
    M = np.zeros((co.total_dim, co.total_dim), dtype=complex)
    for X in co.support:
        for i in range(co.dims[X]):
            e = np.zeros(co.dims[X])
            e[i] = 1.0
            col = co.flatten(_ref_triangle_act(co, T, GradedElement({X: e})))
            M[:, co.offsets[X].start + i] = col
    return M


def _ref_gram(co):
    ring = co.cat.ring
    unit = ring.unit
    wA, wB = co.A.ground().weights, co.B.ground().weights
    G = np.zeros((co.total_dim, co.total_dim), dtype=complex)
    for X, sl in co.offsets.items():
        Xb = ring.dual[X]
        eye = np.eye(co.dims[X])
        stars = [_ref_shape(co, Xb, co.star(GradedElement({X: e})).comps[Xb])
                 for e in eye]
        block = np.zeros((co.dims[X], co.dims[X]), dtype=complex)
        for i in range(co.dims[X]):
            for k in range(co.dims[X]):
                m = np.zeros((co.A.n(unit), co.B.n(unit)), dtype=complex)
                for v in range(ring.N(Xb, X, unit)):
                    m += np.einsum("aij,bkl,ik,jl->ab", co.A.mu(Xb, X, unit)[v],
                                   co.B.mu(Xb, X, unit)[v], stars[i],
                                   _ref_shape(co, X, eye[k]))
                block[i, k] = wA @ m @ wB
        G[sl, sl] = block
    return (G + G.conj().T) / 2.0


def _ref_probe_grams(co):
    G = _ref_gram(co)
    w, U = np.linalg.eigh(G)
    S = (U * np.sqrt(w)) @ U.conj().T
    Sinv = np.linalg.inv(S)
    basis = [T for _, _, T in coend_basis(co)]
    V = np.stack([co.flatten(_ref_triangle_act(co, T, _vacuum(co)))
                  for T in basis], axis=1)
    mats = [S @ _ref_act_matrix(co, T) @ Sinv for T in basis]
    gram_op = np.array([[np.trace(a.conj().T @ b) / co.total_dim
                         for b in mats] for a in mats])
    return V, V.conj().T @ G @ V, gram_op


def _ref_ground_op_norm(co, m):
    gA, gB = co.A.ground(), co.B.ground()
    SA, SB = gA.gns.half, gB.gns.half
    SAi, SBi = np.linalg.inv(SA), np.linalg.inv(SB)
    m = np.asarray(m, dtype=complex).reshape(gA.dim, gB.dim)
    acc = np.zeros((gA.dim * gB.dim,) * 2, dtype=complex)
    for i in range(gA.dim):
        LA = SA @ gA.left_mult(np.eye(gA.dim)[i]) @ SAi
        for k in range(gB.dim):
            LB = SB @ gB.left_mult(np.eye(gB.dim)[k]) @ SBi
            acc += m[i, k] * np.kron(LA, LB)
    return float(np.linalg.norm(acc, 2))


def _rel(new, ref):
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.shape == ref.shape
    return float(np.max(np.abs(new - ref), initial=0.0)
                 / max(float(np.max(np.abs(ref), initial=0.0)), 1e-300))


def _crossed(n, S=None):
    cat = vec_zn(n)
    return CoendAlgebra(trivial_action_object(cat),
                        group_algebra_object(cat), S=S)


def _rotated(D, seed):
    """D with each fiber in a random complex unitary basis: the same algebra
    object with complex structure constants, which real fixtures lack."""
    rng = np.random.default_rng(seed)
    u = {X: np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
         for X, n in D.fibers.items() if n}
    mult = {(X, Y, Z): np.einsum("za,vabc,xb,yc->vzxy", u[Z], m,
                                  u[X].conj(), u[Y].conj())
            for (X, Y, Z), m in D.mult.items()}
    star = {X: u[D.cat.ring.dual[X]] @ m @ u[X].T for X, m in D.star.items()
            if X in u}
    unit = u[D.cat.ring.unit] @ D.unit
    return dataclasses.replace(D, mult=mult, star=star, unit=unit)


def _rotated_annulus(name):
    ann = _rotated(build_annulus(BRAIDED[name]()), seed=7)
    assert validate_algebra_object(ann)["associativity"] < 1e-9
    return CoendAlgebra(opposite_object(ann), ann)


def _matrix_ground(side):
    """M₂ alone in the unit fiber of Vec(Z2): a non-commutative ground, where
    a misplaced Kronecker factor changes operator norms."""
    cat = vec_zn(2)
    mu = np.zeros((4, 4, 4))
    star = np.zeros((4, 4))
    for i, j in itertools.product(range(2), repeat=2):
        star[2 * j + i, 2 * i + j] = 1.0
        for k in range(2):
            mu[2 * i + k, 2 * i + j, 2 * j + k] = 1.0  # E_ij E_jk = E_ik
    return AlgebraObject(cat, {"g0": 4}, {("g0", "g0", "g0"): mu[None]},
                         {"g0": star}, np.eye(2).reshape(-1), side=side)


REFERENCE_CASES = {
    **{f"annulus-{name}": (lambda name=name: _annulus_coend(name))
       for name in BRAIDED},
    **{f"crossed-vec_z{n}": (lambda n=n: _crossed(n)) for n in range(2, 7)},
    "rotated-annulus-fib": lambda: _rotated_annulus("fib"),
    "rotated-annulus-vec_z3": lambda: _rotated_annulus("vec_z3"),
    "matrix-ground": lambda: CoendAlgebra(_matrix_ground("op"),
                                          _matrix_ground("cat")),
    "subgroup-crossed-vec_z4": lambda: _crossed(4, ("g0", "g2")),
}


@pytest.fixture(scope="module", params=sorted(REFERENCE_CASES))
def reference_case(request):
    return REFERENCE_CASES[request.param]()


def test_channel_tensors_match_the_einsum_reference(reference_case):
    co = reference_case
    rng = np.random.default_rng(17)
    for _ in range(3):
        T, U = co.random_element(rng), co.random_element(rng)
        assert _rel(co.flatten(co.mul(T, U)),
                    co.flatten(_ref_triangle_act(co, T, U))) < 1e-12
        assert _rel(co.act_matrix(T), _ref_act_matrix(co, T)) < 1e-12
        ref_e = _ref_triangle_act(co, T, _vacuum(co)).comps.get(
            co.cat.ring.unit, np.zeros(co.dims[co.cat.ring.unit]))
        assert _rel(co.canonical_expectation(T), ref_e) < 1e-12
    assert _rel(co.gram(), _ref_gram(co)) < 1e-12
    S, Sinv = co.gns.half, co.gns.inv_half
    assert _rel(S @ Sinv, np.eye(co.total_dim)) < 1e-12
    unit = co.cat.ring.unit
    for _ in range(3):
        T, m = co.random_element(rng), co.random_element(rng).comps[unit]
        ref_M = S @ _ref_act_matrix(co, T) @ np.linalg.inv(S)
        assert _rel(co.op_norm(T), np.linalg.norm(ref_M, 2)) < 1e-12
        # the ground norm is read off Q's unit block
        ground = (m @ co._conj_unit).reshape(len(m), len(m))
        assert _rel(np.linalg.norm(ground, 2), _ref_ground_op_norm(co, m)) < 1e-12
    for i, (_, _, T) in enumerate(coend_basis(co)):
        assert _rel(co.act_matrix(T), _ref_act_matrix(co, T)) < 1e-12


def test_probe_grams_match_the_traced_reference(reference_case):
    co = reference_case
    for new, ref in zip(_probe_grams(co), _ref_probe_grams(co)):
        assert _rel(new, ref) < 1e-12


def test_the_sandwich_factors_no_ground_form(monkeypatch):
    # both norms of a sandwich come from Q: the only GNS form factored is
    # the module's, none of either ground
    ann = build_annulus(fibonacci())
    co = CoendAlgebra(opposite_object(ann), ann)
    built = []

    def counted(self, G, what="GNS form", _init=GramRoot.__init__):
        built.append(what)
        _init(self, G, what)

    monkeypatch.setattr(GramRoot, "__init__", counted)
    for X in co.support:
        norm_sandwich_check(co, GradedElement({X: np.ones(co.dims[X])}))
    assert built == ["module inner product on ℰ_S"]


def test_sandwich_reports_margins(fib_coend):
    rng = np.random.default_rng(24)
    for X in fib_coend.support:
        T = GradedElement({X: rng.normal(size=fib_coend.dims[X])
                           + 1j * rng.normal(size=fib_coend.dims[X])})
        rep = norm_sandwich_check(fib_coend, T)
        assert rep["left_margin"] == rep["op_norm"] - rep["vacuum_norm"]
        assert rep["right_margin"] == (rep["bound"] * rep["vacuum_norm"]
                                       - rep["op_norm"])
        assert rep["left_margin"] >= -1e-8 and rep["right_margin"] >= -1e-8


def test_probe_reports_the_bound_margin(zn_cross, fib_coend):
    for co in (zn_cross, fib_coend):
        rep = faithfulness_probe(co, 5, seed=1)
        assert rep["bound_margin"] == pytest.approx(
            rep["vacuum_gram_floor"]
            - rep["operator_gram_floor"] * rep["bound_constant"], abs=1e-15)
        assert rep["bound_margin"] >= -1e-10


def test_ising_probe_still_fails_the_bound():
    # a known defect of the quantitative bound on the Ising annulus
    with pytest.raises(CounterexampleFound, match="^vacuum Gram floor"):
        faithfulness_probe(_annulus_coend("ising"), 6, seed=3)


# -- report fields against the einsum reference -------------------------------

def _ref_star(co, T):
    ring = co.cat.ring
    out = {}
    for X, t in T.comps.items():
        m = _ref_shape(co, X, t)
        out[ring.dual[X]] = (co.A.star[X] @ np.conj(m) @ co.B.star[X].T).reshape(-1)
    return GradedElement(out)


def _ref_expect_square(co, T):
    """𝔼(T*T) through the reference product and the reference vacuum action."""
    unit = co.cat.ring.unit
    tt = _ref_triangle_act(co, _ref_star(co, T), GradedElement(T.comps))
    return _ref_triangle_act(co, GradedElement(tt.comps), _vacuum(co)).comps.get(
        unit, np.zeros(co.dims[unit], dtype=complex))


def _ref_gram_root(co):
    w, U = np.linalg.eigh(_ref_gram(co))
    return (U * np.sqrt(w)) @ U.conj().T, (U / np.sqrt(w)) @ U.conj().T


def _ref_norm_sandwich(co, T, slack=1e-8):
    (X,) = T.comps
    d = co.cat.d(X)
    vac_norm = float(np.sqrt(max(_ref_ground_op_norm(co, _ref_expect_square(co, T)), 0.0)))
    v = co.flatten(_ref_triangle_act(co, T, _vacuum(co)))
    scalar = float(np.sqrt(max((v.conj() @ _ref_gram(co) @ v).real, 0.0)))
    S, Sinv = _ref_gram_root(co)
    op = float(np.linalg.norm(S @ _ref_act_matrix(co, T) @ Sinv, 2))
    return {"grade": X, "vacuum_norm": vac_norm, "scalar_vacuum_norm": scalar,
            "op_norm": op, "bound": d * d,
            "left_ok": vac_norm <= op + slack * max(1.0, op),
            "right_ok": op <= d * d * vac_norm + slack * max(1.0, op),
            "slack": slack * max(1.0, op),
            "left_margin": op - vac_norm, "right_margin": d * d * vac_norm - op}


def _ref_faithfulness_probe(co, trials, seed):
    rng = np.random.default_rng(seed)
    masses = [float(np.sum(np.abs(_ref_expect_square(co, co.random_element(rng)))))
              for _ in range(trials)]
    V, gram_vac, gram_op = _ref_probe_grams(co)
    lo_vac = float(np.linalg.eigvalsh((gram_vac + gram_vac.conj().T) / 2)[0])
    lo_op = float(np.linalg.eigvalsh((gram_op + gram_op.conj().T) / 2)[0])
    dmax = max(co.cat.d(X) for X in co.support)
    if lo_vac < lo_op / dmax**4 - 1e-10:
        return f"vacuum Gram floor {lo_vac:.3e} below sandwich bound {lo_op / dmax**4:.3e}"
    return {"trials": trials, "seed": seed,
            "failures": sum(m < 1e-12 for m in masses),
            "min_expectation_mass": min(masses),
            "vacuum_gram_floor": lo_vac, "operator_gram_floor": lo_op,
            "bound_constant": dmax**-4, "bound_margin": lo_vac - lo_op * dmax**-4,
            "cyclic_rank": int(np.linalg.matrix_rank(V, tol=1e-10)),
            "expected_rank": co.total_dim}


def _assert_same_report(got, want):
    assert set(got) == set(want)
    for key, ref in want.items():
        if isinstance(ref, float):
            assert abs(got[key] - ref) <= 1e-12 * max(1.0, abs(ref)), key
        else:
            assert got[key] == ref, key


def test_sandwich_reports_match_the_einsum_reference(reference_case):
    co = reference_case
    rng = np.random.default_rng(29)
    for X in co.support:
        T = GradedElement({X: rng.normal(size=co.dims[X])
                           + 1j * rng.normal(size=co.dims[X])})
        _assert_same_report(norm_sandwich_check(co, T), _ref_norm_sandwich(co, T))


def test_probe_reports_match_the_einsum_reference(reference_case):
    co = reference_case
    want = _ref_faithfulness_probe(co, 3, seed=8)
    if isinstance(want, str):  # the probe bound's known defect
        with pytest.raises(CounterexampleFound) as exc:
            faithfulness_probe(co, 3, seed=8)
        assert str(exc.value) == want
        return
    _assert_same_report(faithfulness_probe(co, 3, seed=8), want)


def test_unknown_grades_are_refused():
    co = _crossed(3)
    bad, good = GradedElement({"nope": np.ones(1)}), _delta(co, "g1")
    for use in (lambda: co.star(bad), lambda: co.mul(bad, good),
                lambda: co.mul(good, bad), lambda: co.act_matrix(bad),
                lambda: co.op_norm(bad), lambda: co.canonical_expectation(bad)):
        with pytest.raises(UnknownLabel):
            use()


def test_operators_outside_the_support_are_refused():
    # operators and module vectors share the grades of S: on the subgroup
    # S = (g0, g2) of Z4 an operator at g1 is refused like a module vector
    co = _crossed(4, ("g0", "g2"))
    bad, good = GradedElement({"g1": np.ones(1)}), _delta(co, "g2")
    for use in (lambda: co.star(bad), lambda: co.mul(bad, good),
                lambda: co.mul(good, bad), lambda: co.act_matrix(bad),
                lambda: co.op_norm(bad), lambda: co.canonical_expectation(bad)):
        with pytest.raises(SupportOverflow, match="component g1 outside the support"):
            use()
