import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import index_reference
from test_annulus import _gauged, _mirror
from tree_reference import EmptyHomSpace, InapplicableMove, TreeCalculus, TreeVector
from utcat import io_schemas as io
from utcat.errors import MissingBraiding, SchemaError
from utcat.fixtures import FIXTURE_BUILDERS, fibonacci, ising, mult2_ring, su2k, vec_zn
from utcat.skeletal import SkeletalUTC, _block

TOL = 1e-10
PHI = (1.0 + np.sqrt(5.0)) / 2.0


@pytest.fixture(scope="module")
def fib():
    return fibonacci()


@pytest.fixture(scope="module")
def isg():
    return ising()


@pytest.fixture(scope="module", params=["fib", "ising", "vec_z4", "vec_z5"])
def cat(request):
    return {
        "fib": fibonacci,
        "ising": ising,
        "vec_z4": lambda: vec_zn(4),
        "vec_z5": lambda: vec_zn(5),
    }[request.param]()


# ---------------------------------------------------------------------------
# tree enumeration (the reference calculus of tests/tree_reference.py)
# ---------------------------------------------------------------------------

def test_tree_path_counts_match_fusion_counts(cat):
    cat = TreeCalculus(cat)
    ring = cat.ring
    for word_len in range(0, 4):
        for word in itertools.product(ring.labels, repeat=word_len):
            for root in ring.labels:
                assert len(cat.tree_paths(root, word)) == cat.hom_dim(root, word)


def test_tree_paths_fibonacci_counts(fib):
    # dim Hom(1, tau^n) is the Fibonacci recursion: 0, 1, 1, 2, 3, 5 ...
    dims = [TreeCalculus(fib).hom_dim("1", ("tau",) * n) for n in range(1, 7)]
    assert dims == [0, 1, 1, 2, 3, 5]


def _ring_only(ring):
    cat = SkeletalUTC.__new__(SkeletalUTC)  # tree enumeration needs only the ring
    cat.ring = ring
    return TreeCalculus(cat)


def test_multiplicity_two_paths():
    cat = _ring_only(mult2_ring())
    paths = cat.tree_paths("x", ("x", "x", "x"))
    # channels: (x x -> 1) then (1 x -> x), or (x x -> x)[2] then (x x -> x)[2]
    assert len(paths) == 1 + 2 * 2
    assert cat.hom_dim("x", ("x", "x", "x")) == 5


def _assert_admissible_trees_are_tree_paths(cat, length):
    got = {}
    for word, root, path in cat.admissible_trees(length):
        got.setdefault((word, root), []).append(path)
    for word in itertools.product(cat.ring.labels, repeat=length):
        for root in cat.ring.labels:
            want = cat.tree_paths(root, word)
            assert got.pop((word, root), []) == want
            assert len(want) == cat.hom_dim(root, word)
    assert not got


def test_admissible_trees_are_the_tree_paths(cat):
    for length in (3, 4):
        _assert_admissible_trees_are_tree_paths(TreeCalculus(cat), length)


def test_admissible_trees_with_multiplicity_two():
    cat = _ring_only(mult2_ring())
    _assert_admissible_trees_are_tree_paths(cat, 4)
    # x⊗x = 1 ⊕ 2x, so x^⊗3 = 2·1 ⊕ 5x and x^⊗4 = 5·1 ⊕ 12x
    assert len(cat.tree_paths("1", ("x",) * 4)) == 5
    assert len(cat.tree_paths("x", ("x",) * 4)) == 12


def test_onb_trees_raises_on_empty(fib):
    fib = TreeCalculus(fib)
    with pytest.raises(EmptyHomSpace):
        fib.onb_trees("tau", "1", "1")
    assert len(fib.onb_trees("1", "tau", "tau")) == 1


# ---------------------------------------------------------------------------
# coherence: unitarity, pentagon, hexagon, zig-zag — route equalities
# ---------------------------------------------------------------------------

def test_f_matrices_unitary(cat):
    assert cat.verify_unitarity() < TOL


def test_pentagon_routes_agree(cat):
    assert cat.verify_pentagon() < TOL


def test_hexagon_routes_agree(cat):
    assert cat.verify_hexagon() < TOL


def test_zigzag_solutions_standard(cat):
    assert cat.verify_zigzag() < TOL
    for x in cat.ring.labels:
        sol = cat.conjugate_solution(x)
        assert sol.r.real > 0 and abs(sol.r.imag) < TOL
        assert abs(abs(sol.rbar) ** 2 - cat.d(x)) < 1e-9


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["vec_z3", "vec_z4", "vec_z6", "fib", "ising", "su2_3"])
def test_zigzag_holds_in_a_random_vertex_gauge(name, seed):
    # R̄ enters the first zig-zag as an adjoint, so its coefficient is conj(r̄);
    # with r̄ instead, a phase on the non-self-dual unit vertices of the
    # gauged vec_zn read 0.2-2.0 here
    assert _gauged(FIXTURE_BUILDERS[name](), seed).verify_zigzag() <= 1e-15


@pytest.mark.parametrize("theta", [0.3, 1.0, np.pi])
@pytest.mark.parametrize("name", ["vec_z3", "fib", "ising"])
def test_zigzag_residual_sees_a_phase_on_rbar(name, theta):
    cat = _gauged(FIXTURE_BUILDERS[name](), 0)
    r, rbar, _ = cat._conjugates
    res = cat._zigzag_residuals(r, rbar * np.exp(1j * theta))  # one per label
    assert list(res) == pytest.approx([abs(np.exp(1j * theta) - 1.0)] * len(r), abs=1e-12)


def _closed_form_dims(name, cat):
    """d by label from the fusion rules' closed forms: φ, √2, 1 for pointed
    categories, [n+1]_q = sin((n+1)π/(k+2))/sin(π/(k+2)) for SU(2)_k."""
    if name.startswith("su2_"):
        s = np.pi / (int(name[4:]) + 2)
        return {x: np.sin((int(x[1:]) + 1) * s) / np.sin(s) for x in cat.ring.labels}
    return {x: {"tau": PHI, "sigma": np.sqrt(2.0)}.get(x, 1.0) for x in cat.ring.labels}


@pytest.mark.parametrize("name", [*FIXTURE_BUILDERS, "su2_6", "su2_7", "su2_8"])
def test_dimensions_read_off_f_equal_the_closed_forms(name):
    cat = FIXTURE_BUILDERS[name]() if name in FIXTURE_BUILDERS else su2k(int(name[4:]))
    want = _closed_form_dims(name, cat)
    assert max(abs(cat.d(x) - want[x]) for x in cat.ring.labels) <= 1e-14
    assert cat.verify_zigzag() <= 1e-15


@pytest.mark.parametrize("scale", [0.5, 2.0])
@pytest.mark.parametrize("name", ["fib", "ising", "vec_z3", "su2_3"])
def test_a_scaled_unit_entry_fails_the_zigzag(name, scale):
    # d_x read off a scaled unit entry of F[x,x̄,x;x] no longer solves the
    # fusion rules, and for x ≠ x̄ no longer matches d_x̄
    cat = FIXTURE_BUILDERS[name]()
    ring, t = cat.ring, cat.ring.ftable
    x = ring.labels[1]
    key = (x, ring.dual[x], x, x)
    k, u = t.number[tuple(ring.index[y] for y in key)], ring.index[ring.unit]
    F = np.array(cat._F)
    _block(ring, t, F, key)[t.chan[k, 0, u], t.chan[k, 1, u]] *= scale
    assert SkeletalUTC(ring, F, cat._R).verify_zigzag() >= 0.1


def test_block_readers_build_no_label_keyed_block_mapping():
    # every label-keyed read finds its block through ftable.number or
    # rtable.number: the ring holds no mapping from (a, b, c) or (a, b, c, d)
    cat = io.cat_from_json(io.cat_to_json(su2k(3)))
    cat.verify_zigzag()
    j = cat.ring.labels[1:3]
    index_reference.fmat(cat, *j, *j), index_reference.rmat(cat, *j, j[1])
    cat.conj_pair_matrix(*j, j[1]), cat.fblock(*j, *j, j[0], j[1]), cat._twists
    held = [x for v in vars(cat.ring).values() for x in (v if isinstance(v, tuple) else (v,))]
    keys = [k for m in held if isinstance(m, dict) for k in m]
    assert keys and not any(isinstance(k, tuple) and len(k) in (3, 4) for k in keys)


@pytest.mark.parametrize("mirror", [False, True])
@pytest.mark.parametrize("k", range(2, 9))
def test_su2k_is_coherent(k, mirror):
    cat = _mirror(su2k(k)) if mirror else su2k(k)
    assert cat.verify_pentagon() <= 1e-12
    assert cat.verify_hexagon() <= 1e-12
    assert cat.verify_unitarity() <= 1e-12
    assert cat.verify_zigzag() <= 1e-12


@pytest.mark.parametrize("k", [2, 5, 10])
def test_su2k_buffers_equal_the_per_key_reference(k):
    # k = 10 is the first level where "j10" sorts before "j2"
    got, want = su2k(k), index_reference.su2k(k)
    for x, y in ((got._F, want._F), (got._R, want._R)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_su2k_pentagon_when_labels_sort_out_of_spin_order():
    # from k = 10 on "j10" sorts before "j2": blocks follow the ftable slot rows
    assert su2k(10).verify_pentagon() <= 1e-12


def _twist(cat, x):
    """θ_x, read from the category's table of twists."""
    return cat._twists[cat.ring.index[x]]


@pytest.mark.parametrize("k", range(1, 9))
def test_su2k_twists_and_dimensions(k):
    cat = su2k(k)
    q = np.exp(2j * np.pi / (k + 2))
    for n in range(k + 1):
        j = n / 2
        assert abs(_twist(cat, f"j{n}") - q ** (j * (j + 1))) < 1e-12
        assert abs(cat.d(f"j{n}") - np.sin((n + 1) * np.pi / (k + 2))
                   / np.sin(np.pi / (k + 2))) < 1e-12


def test_twists_of_fib_and_ising():
    assert abs(_twist(fibonacci(), "tau") - np.exp(4j * np.pi / 5)) < 1e-12
    isg = ising()
    assert abs(_twist(isg, "psi") + 1.0) < 1e-12
    assert abs(_twist(isg, "sigma") - np.exp(1j * np.pi / 8)) < 1e-12


def test_blocks_are_read_only():
    cat = fibonacci()
    F = np.array(cat._F)
    own = SkeletalUTC(cat.ring, F, cat._R)
    with pytest.raises(ValueError):
        index_reference.fmat(own, "tau", "tau", "tau", "tau")[0, 0] = 0.0
    with pytest.raises(ValueError):
        index_reference.rmat(own, "tau", "tau", "1")[0, 0] = 0.0
    # the category keeps its own copy: the caller's buffer stays writable and
    # writing to it changes nothing the category computes with
    F[...] = 7.0
    assert index_reference.fmat(own, "tau", "tau", "tau", "tau")[0, 0] == pytest.approx(1.0 / PHI)
    assert own.verify_pentagon() < TOL


@pytest.mark.parametrize("kind", ["F", "R"])
@pytest.mark.parametrize("change", ["short", "long", "2-d"])
def test_a_buffer_of_the_wrong_shape_is_refused(kind, change):
    # a short buffer failed on numpy broadcasting, a 2-d one on an index
    cat = fibonacci()
    bufs = {"F": cat._F, "R": cat._R}
    n = len(bufs[kind])
    bufs[kind] = {"short": bufs[kind][:-1], "long": np.append(bufs[kind], 0.0),
                  "2-d": bufs[kind][None]}[change]
    with pytest.raises(SchemaError, match=rf"{kind} buffer .* expected \({n},\)"):
        SkeletalUTC(cat.ring, bufs["F"], bufs["R"])


def test_missing_braiding_raises():
    cat = fibonacci()
    stripped = SkeletalUTC(cat.ring, cat._F)
    with pytest.raises(MissingBraiding):
        stripped._twists
    with pytest.raises(MissingBraiding):
        stripped.verify_hexagon()


# ---------------------------------------------------------------------------
# move primitives (the reference calculus of tests/tree_reference.py)
# ---------------------------------------------------------------------------

def _rand_tree_vector(cat, root, word, rng):
    paths = cat.tree_paths(root, word)
    if not paths:
        return None
    coeffs = {p: complex(rng.normal(), rng.normal()) for p in paths}
    return TreeVector(tuple(word), root, coeffs)


def test_braid_is_unitary_and_invertible(cat):
    cat = TreeCalculus(cat)
    rng = np.random.default_rng(11)
    ring = cat.ring
    for word in itertools.product(ring.labels, repeat=3):
        for root in ring.labels:
            tv = _rand_tree_vector(cat, root, word, rng)
            if tv is None:
                continue
            for k in (0, 1):
                btv = cat.braid_adjacent(tv, k)
                assert btv.norm_sq() == pytest.approx(tv.norm_sq(), abs=1e-9)
                back = cat.braid_adjacent(btv, k, inverse=True)
                assert back.word == tv.word
                for p in set(back.coeffs) | set(tv.coeffs):
                    assert back.coeffs.get(p, 0) == pytest.approx(tv.coeffs.get(p, 0), abs=TOL)


def test_insert_then_contract_is_dimension_scalar(cat):
    # contracting an inserted standard pair returns d_x · id
    cat = TreeCalculus(cat)
    rng = np.random.default_rng(5)
    ring = cat.ring
    for x in ring.labels:
        sol = cat.conjugate_solution(x)
        for word in [(y,) for y in ring.labels] + [("0",)][:0]:
            root = word[0]
            tv = TreeVector(word, root, {(): 1.0 + 0j})
            for k in (0, 1):
                up = cat.insert_pair(tv, k, ring.dual[x] if k == 0 else x,
                                     x if k == 0 else ring.dual[x],
                                     [sol.r if k == 0 else sol.rbar])
                down = cat.contract_pair(up, k, ring.unit,
                                         [sol.r if k == 0 else sol.rbar])
                assert down.coeffs.get((), 0) == pytest.approx(cat.d(x), abs=1e-9)


def test_merge_of_orthonormal_trees_is_orthonormal(cat):
    cat = TreeCalculus(cat)
    ring = cat.ring
    worst = 0.0
    words = [(x,) for x in ring.labels][:3] + [(ring.labels[-1], ring.labels[-1])]
    for wa, wb in itertools.product(words, repeat=2):
        for ra, rb, root in itertools.product(ring.labels, repeat=3):
            nw = ring.N(ra, rb, root)
            if nw == 0:
                continue
            vecs = []
            for p in cat.tree_paths(ra, wa):
                for q in cat.tree_paths(rb, wb):
                    for s in range(nw):
                        w = np.eye(nw)[s]
                        vecs.append(cat.merge(cat.basis_tree(ra, wa, p),
                                              cat.basis_tree(rb, wb, q), root, w))
            if not vecs:
                continue
            G = np.array([[u.inner(v) for v in vecs] for u in vecs])
            worst = max(worst, float(np.max(np.abs(G - np.eye(len(vecs))))))
    assert worst < 1e-9


def test_merge_respects_unit_factors(fib):
    tv = TreeVector(("tau",), "tau", {(): 2.0 + 0j})
    empty = TreeVector((), "1", {(): 3.0 + 0j})
    fib = TreeCalculus(fib)
    m = fib.merge(empty, tv, "tau", [1.0])
    assert m.word == ("tau",)
    assert m.coeffs[()] == pytest.approx(6.0)
    m2 = fib.merge(tv, empty, "tau", [1.0])
    assert m2.coeffs[()] == pytest.approx(6.0)


def test_move_position_bounds(fib):
    fib = TreeCalculus(fib)
    tv = TreeVector(("tau", "tau"), "1", {(("1", 0),): 1.0 + 0j})
    with pytest.raises(InapplicableMove):
        fib.braid_adjacent(tv, 1)
    with pytest.raises(InapplicableMove):
        fib.contract_pair(tv, 5, "1", [1.0])
    with pytest.raises(InapplicableMove):
        fib.insert_pair(tv, 9, "tau", "tau", [1.0])


# ---------------------------------------------------------------------------
# bends and conjugates
# ---------------------------------------------------------------------------

def test_bend_round_trips(cat):
    # the conjugate conj(v)·K is three bends: the reference calculus's
    # unbends, taken in reverse, return v
    ref = TreeCalculus(cat)
    rng = np.random.default_rng(23)
    ring = cat.ring
    for a, b, c in itertools.product(ring.labels, repeat=3):
        n = ring.N(a, b, c)
        if n == 0:
            continue
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        u = np.conj(v) @ cat.conj_pair_matrix(a, b, c)
        bb, cb = ring.dual[b], ring.dual[c]
        back = ref.unbend_right(a, b, c, ref.unbend_left(c, bb, a, ref.unbend_right(cb, a, bb, u)))
        assert np.max(np.abs(back - v)) < 1e-9


def test_bends_are_antilinear(fib):
    # the reference's bends are antilinear, so one matrix K gives the
    # conjugate of every complex vector, not only of the basis vectors
    ref, a = TreeCalculus(fib), "tau"
    v = np.array([1.0 + 2.0j])
    K = fib.conj_pair_matrix(a, a, a)
    assert np.allclose(ref.conj_pair_basis(a, a, a, 1j * v), -1j * ref.conj_pair_basis(a, a, a, v))
    assert np.allclose(ref.conj_pair_basis(a, a, a, 1j * v), np.conj(1j * v) @ K)


def test_conjugation_is_involutive(cat):
    rng = np.random.default_rng(3)
    ring = cat.ring
    for a, b, c in itertools.product(ring.labels, repeat=3):
        n = ring.N(a, b, c)
        if n == 0:
            continue
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        cv = np.conj(v) @ cat.conj_pair_matrix(a, b, c)
        assert len(cv) == ring.N(ring.dual[b], ring.dual[a], ring.dual[c])
        ccv = np.conj(cv) @ cat.conj_pair_matrix(ring.dual[b], ring.dual[a], ring.dual[c])
        assert np.max(np.abs(ccv - v)) < 1e-9


def test_conjugate_gram_is_constant_multiple_of_identity(cat):
    # conjugation composed with itself is the identity, so the Gram matrix of
    # conjugated basis vectors must be a positive multiple of a permutation of
    # the identity; for these fixtures it is literally c·I per hom space.
    ring = cat.ring
    for a, b, c in itertools.product(ring.labels, repeat=3):
        n = ring.N(a, b, c)
        if n == 0:
            continue
        conj_basis = cat.conj_pair_matrix(a, b, c)  # row t: the conjugate of basis vector t
        G = conj_basis.conj() @ conj_basis.T
        scale = G[0, 0].real
        assert scale > 0
        assert np.max(np.abs(G - scale * np.eye(n))) < 1e-9


def test_frobenius_bend_scaling_law(cat):
    # ‖bend_left(v)‖² = (d_c/d_b)·‖v‖² and ‖bend_right(v)‖² = (d_c/d_a)·‖v‖²
    # for standard solutions, so the three bends of the conjugate scale by
    # (d_c/d_a)·(d_a/d_b̄)·(d_b̄/d_c̄) = 1: K is unitary, which a convention
    # drift would break
    ring = cat.ring
    for a, b, c in itertools.product(ring.labels, repeat=3):
        n = ring.N(a, b, c)
        if n == 0:
            continue
        K = cat.conj_pair_matrix(a, b, c)
        assert np.max(np.abs(K @ K.conj().T - np.eye(n))) < 1e-9


# ---------------------------------------------------------------------------
# hypothesis: random tree vectors through random move words stay consistent
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**20), k1=st.integers(0, 2), k2=st.integers(0, 2))
def test_random_braids_compose_unitarily(seed, k1, k2):
    cat = TreeCalculus(fibonacci())
    rng = np.random.default_rng(seed)
    word = ("tau",) * 4
    for root in ("1", "tau"):
        tv = _rand_tree_vector(cat, root, word, rng)
        out = cat.braid_adjacent(cat.braid_adjacent(tv, k1), k2)
        assert out.norm_sq() == pytest.approx(tv.norm_sq(), rel=1e-9)
        # undo in reverse order
        back = cat.braid_adjacent(cat.braid_adjacent(out, k2, True), k1, True)
        for p in set(back.coeffs) | set(tv.coeffs):
            assert back.coeffs.get(p, 0) == pytest.approx(tv.coeffs.get(p, 0), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**20))
def test_yang_baxter_on_three_strands(seed):
    # (τ⊗1)(1⊗τ)(τ⊗1) = (1⊗τ)(τ⊗1)(1⊗τ) — a consequence of hexagon+pentagon,
    # derived here purely from the reference move engine.
    cat = TreeCalculus(ising())
    rng = np.random.default_rng(seed)
    word = ("sigma", "sigma", "sigma")
    for root in cat.ring.labels:
        tv = _rand_tree_vector(cat, root, word, rng)
        if tv is None:
            continue
        lhs = cat.braid_adjacent(cat.braid_adjacent(cat.braid_adjacent(tv, 0), 1), 0)
        rhs = cat.braid_adjacent(cat.braid_adjacent(cat.braid_adjacent(tv, 1), 0), 1)
        for p in set(lhs.coeffs) | set(rhs.coeffs):
            assert lhs.coeffs.get(p, 0) == pytest.approx(rhs.coeffs.get(p, 0), abs=1e-9)
