"""Pentagon and hexagon catch corrupted data, with the same residuals as a
per-tree reference that moves through ``np.linalg.solve``.

The reference below re-enumerates trees and F-block indices from ``ring.N``
and solves every F-move instead of using the cached tables and inverses, so
an error in either (or an F⁻¹ = F† shortcut) shows as a residual mismatch.
"""

import itertools

import numpy as np
import pytest

import index_reference
from utcat.fixtures import fibonacci, ising, mult2_ring, random_blocks, vec_zn
from utcat import skeletal
from utcat.skeletal import SkeletalUTC

CASES = {"fib": fibonacci, "ising": ising, "vec_z3": lambda: vec_zn(3)}
# residuals with the last F block × e^{0.3i} and the last R block × e^{0.2i}
CORRUPTED = {"fib": (0.59104, 0.45041), "ising": (0.59104, 0.44241),
             "vec_z3": (0.59104, 0.68580)}


# -- reference: per-tree routes, indices from ring.N, solve per move ---------

def _left_index(ring, a, b, c, d):
    return [(e, al, be) for e in ring.labels
            for al in range(ring.N(a, b, e)) for be in range(ring.N(e, c, d))]


def _right_index(ring, a, b, c, d):
    return [(f, mu, nu) for f in ring.labels
            for mu in range(ring.N(b, c, f)) for nu in range(ring.N(a, f, d))]


def _tree_paths(ring, root, word):
    paths = [((), word[0])]
    for i, x in enumerate(word[1:], start=1):
        targets = [root] if i == len(word) - 1 else ring.labels
        paths = [(p + ((m, t),), m) for p, prev in paths for m in targets
                 for t in range(ring.N(prev, x, m))]
    return [p for p, _ in paths]


def _add(out, key, value):
    out[key] = out.get(key, 0.0) + value


def _move(cat, a, b, c, d, left, coeff):
    lidx = _left_index(cat.ring, a, b, c, d)
    lvec = np.zeros(len(lidx), dtype=complex)
    lvec[lidx.index(left)] = coeff
    rvec = np.linalg.solve(index_reference.fmat(cat, a, b, c, d), lvec)
    return [(t, rvec[i]) for i, t in enumerate(_right_index(cat.ring, a, b, c, d))
            if abs(rvec[i])]


def _route_1234(cat, word, e, coeffs):
    a, b, c, dd = word
    t2 = {}
    for ((m1, t1), (m2, s2), (_, t3)), x in coeffs.items():
        for (f, mu, nu), v in _move(cat, a, b, c, m2, (m1, t1, s2), x):
            _add(t2, (f, mu, nu, m2, t3), v)
    t3 = {}
    for (f, mu, nu, m2, s3), x in t2.items():
        for (g, rho, sig), v in _move(cat, a, f, dd, e, (m2, nu, s3), x):
            _add(t3, (f, mu, g, rho, sig), v)
    out = {}
    for (f, mu, g, rho, sig), x in t3.items():
        for (h, kap, lam), v in _move(cat, b, c, dd, g, (f, mu, rho), x):
            _add(out, (h, kap, g, lam, sig), v)
    return out


def _route_154(cat, word, e, coeffs):
    a, b, c, dd = word
    t5 = {}
    for ((m1, t1), (m2, t2), (_, t3)), x in coeffs.items():
        for (h, kap, nu2), v in _move(cat, m1, c, dd, e, (m2, t2, t3), x):
            _add(t5, (m1, t1, h, kap, nu2), v)
    out = {}
    for (m1, t1, h, kap, nu2), x in t5.items():
        for (g, lam, sig), v in _move(cat, a, b, h, e, (m1, t1, nu2), x):
            _add(out, (h, kap, g, lam, sig), v)
    return out


def _max_diff(lhs, rhs):
    return max((abs(lhs.get(k, 0.0) - rhs.get(k, 0.0)) for k in set(lhs) | set(rhs)),
               default=0.0)


def reference_pentagon(cat):
    ring, worst = cat.ring, 0.0
    for word in itertools.product(ring.labels, repeat=4):
        for e in ring.labels:
            for p in _tree_paths(ring, e, word):
                coeffs = {p: 1.0 + 0.0j}
                worst = max(worst, _max_diff(_route_1234(cat, word, e, coeffs),
                                             _route_154(cat, word, e, coeffs)))
    return worst


def _r(cat, a, b, c, inverse):
    # inverse braiding a⊗b -> b⊗a is (τ_{b,a})^{-1} = R(b,a)†
    R = index_reference.rmat
    return R(cat, b, a, c).conj().T if inverse else R(cat, a, b, c)


def _braid_first(cat, word, coeffs, inverse):
    b, c = word[0], word[1]
    out = {}
    for path, x in coeffs.items():
        m1, t1 = path[0]
        R = _r(cat, b, c, m1, inverse)
        for t1p in range(R.shape[0]):
            _add(out, ((m1, t1p),) + path[1:], R[t1p, t1] * x)
    return (c, b) + word[2:], out


def _braid_second(cat, word, root, coeffs, inverse):
    """id_a ⊗ τ_{b,c} on a 3-letter word (a, b, c)."""
    a, b, c = word
    ring = cat.ring
    lidx = _left_index(ring, a, b, c, root)
    vec = np.zeros(len(lidx), dtype=complex)
    for ((e, al), (_, be)), x in coeffs.items():
        vec[lidx.index((e, al, be))] += x
    right = np.linalg.solve(index_reference.fmat(cat, a, b, c, root), vec)
    ridx2 = _right_index(ring, a, c, b, root)
    right2 = np.zeros(len(ridx2), dtype=complex)
    for i, (f, mu, nu) in enumerate(_right_index(ring, a, b, c, root)):
        if abs(right[i]) == 0.0:
            continue
        R = _r(cat, b, c, f, inverse)
        for mup in range(R.shape[0]):
            right2[ridx2.index((f, mup, nu))] += R[mup, mu] * right[i]
    left2 = index_reference.fmat(cat, a, c, b, root) @ right2
    out = {}
    for i, (e, al, be) in enumerate(_left_index(ring, a, c, b, root)):
        if abs(left2[i]):
            _add(out, ((e, al), (root, be)), left2[i])
    return out


def _braid_past_pair(cat, word, root, coeffs, inverse):
    a, b, c = word
    out = {}
    for ((m1, t1), (_, t2)), x in coeffs.items():
        for (f, mu, nu), v in _move(cat, a, b, c, root, (m1, t1, t2), x):
            R = _r(cat, a, f, root, inverse)
            for nup in range(R.shape[0]):
                _add(out, ((f, mu), (root, nup)), R[nup, nu] * v)
    return out


def reference_hexagon(cat):
    ring, worst = cat.ring, 0.0
    for word in itertools.product(ring.labels, repeat=3):
        for root in ring.labels:
            for p in _tree_paths(ring, root, word):
                coeffs = {p: 1.0 + 0.0j}
                for inverse in (False, True):
                    w1, c1 = _braid_first(cat, word, coeffs, inverse)
                    lhs = _braid_second(cat, w1, root, c1, inverse)
                    rhs = _braid_past_pair(cat, word, root, coeffs, inverse)
                    worst = max(worst, _max_diff(lhs, rhs))
    return worst


# -- tests -------------------------------------------------------------------

def _last_key(cat, kind):
    """The last label key, sorted, of a ``kind`` block without a unit leg."""
    return sorted(index_reference.block_keys(
        cat.ring, cat.ring.ftable if kind == "F" else cat.ring.rtable))[-1]


def _corrupted(cat):
    kf, kr = _last_key(cat, "F"), _last_key(cat, "R")
    cat = index_reference.edited(cat, "F", kf, index_reference.fmat(cat, *kf) * np.exp(0.3j))
    return index_reference.edited(cat, "R", kr, index_reference.rmat(cat, *kr) * np.exp(0.2j))


@pytest.mark.parametrize("name", sorted(CASES))
def test_reference_agrees_on_valid_fixtures(name):
    cat = CASES[name]()
    assert cat.verify_pentagon() == pytest.approx(reference_pentagon(cat), abs=1e-12)
    assert cat.verify_hexagon() == pytest.approx(reference_hexagon(cat), abs=1e-12)


@pytest.mark.parametrize("name", sorted(CASES))
def test_corrupted_blocks_are_detected(name):
    cat = _corrupted(CASES[name]())
    pentagon, hexagon = cat.verify_pentagon(), cat.verify_hexagon()
    assert pentagon >= 0.1 and hexagon >= 0.1
    assert pentagon == pytest.approx(reference_pentagon(cat), abs=1e-12)
    assert hexagon == pytest.approx(reference_hexagon(cat), abs=1e-12)
    assert (pentagon, hexagon) == pytest.approx(CORRUPTED[name], abs=1e-5)


def test_non_unitary_block_uses_the_inverse():
    # a unitary-only shortcut F⁻¹ = F† would change both residuals here
    cat = fibonacci()
    M = np.array(index_reference.fmat(cat, "tau", "tau", "tau", "tau"))
    M[0, 0] *= 1.5
    bad = index_reference.edited(cat, "F", ("tau", "tau", "tau", "tau"), M)
    assert bad.verify_unitarity() >= 0.1
    pentagon, hexagon = bad.verify_pentagon(), bad.verify_hexagon()
    assert pentagon >= 0.1 and hexagon >= 0.1
    assert pentagon == pytest.approx(reference_pentagon(bad), abs=1e-12)
    assert hexagon == pytest.approx(reference_hexagon(bad), abs=1e-12)


def test_singular_block_raises():
    bad = index_reference.edited(fibonacci(), "F", ("tau", "tau", "tau", "tau"), 0.0)
    with pytest.raises(np.linalg.LinAlgError):
        bad.verify_pentagon()


def test_multiplicity_indices_agree_with_the_reference():
    cat = random_blocks(mult2_ring(), 0)
    assert {key: index_reference.fmat(cat, *key).shape
            for key in index_reference.block_keys(cat.ring, cat.ring.ftable)} == {
        ("x", "x", "x", "1"): (2, 2), ("x", "x", "x", "x"): (5, 5)}
    pentagon, hexagon = cat.verify_pentagon(), cat.verify_hexagon()
    assert pentagon == pytest.approx(reference_pentagon(cat), rel=1e-12)
    assert hexagon == pytest.approx(reference_hexagon(cat), rel=1e-12)
    assert (pentagon, hexagon) == pytest.approx((1.83466, 16.5702), rel=1e-5)


def _ch(ring, x, y):
    return [z for z, _ in ring.channels(x, y)]


def _pentagon_blocks(ring, a, b, c, d, e):
    """Every F key one of the five moves of the pentagon at (a,b,c,d; e) reads."""
    keys = set()
    for m1 in _ch(ring, a, b):
        for m2 in _ch(ring, m1, c):
            if e not in _ch(ring, m2, d):
                continue
            keys |= {(a, b, c, m2), (m1, c, d, e)}
            for f in _ch(ring, b, c):
                if m2 in _ch(ring, a, f):
                    keys |= {(a, f, d, e)}
                keys |= {(b, c, d, g) for g in _ch(ring, f, d) if e in _ch(ring, a, g)}
            keys |= {(a, b, h, e) for h in _ch(ring, c, d) if e in _ch(ring, m1, h)}
    return keys


def _hexagon_blocks(ring, a, b, c, d):
    """Every R key the hexagon at (a,b,c; d) reads, for either crossing."""
    keys = {(a, b, m) for m in _ch(ring, a, b) if d in _ch(ring, m, c)}
    keys |= {(a, c, f) for f in _ch(ring, a, c) if d in _ch(ring, b, f)}
    keys |= {(a, f, d) for f in _ch(ring, b, c) if d in _ch(ring, a, f)}
    return keys | {(y, x, z) for x, y, z in keys}


@pytest.mark.parametrize("name", ["fib", "ising"])
def test_worst_location_names_the_corrupted_block(name):
    cat = _corrupted(CASES[name]())
    kf, kr = _last_key(cat, "F"), _last_key(cat, "R")
    res, where = cat.coherence("pentagon")
    assert res == cat.verify_pentagon() and len(where) == 5
    assert kf in _pentagon_blocks(cat.ring, *where)
    # hexagons also read F, so only R is corrupted here
    only_r = SkeletalUTC(cat.ring, CASES[name]()._F, cat._R)
    res, where = only_r.coherence("hexagon")
    assert res == only_r.verify_hexagon() >= 0.1 and len(where) == 4
    assert kr in _hexagon_blocks(cat.ring, *where)
    # a valid fixture still names an admissible tree
    res, where = vec_zn(3).coherence("pentagon")
    assert res < 1e-12 and len(_tree_paths(vec_zn(3).ring, where[-1], where[:-1])) >= 1


def test_table_inverses_are_the_cached_inverses():
    cat = fibonacci()
    cat.verify_pentagon()
    inv = cat._Finv  # built for the pentagon's F⁻¹ entry table
    assert inv is not None and not inv.flags.writeable
    for key in index_reference.f_keys(cat.ring):
        M = index_reference.finv(cat, *key)
        assert np.shares_memory(M, inv)
        assert np.allclose(M @ index_reference.fmat(cat, *key), np.eye(len(M)), atol=1e-12)
    assert cat._inverses() is inv
    assert index_reference.finv(cat, "tau", "tau", "tau", "tau").shape == (2, 2)


def test_chunked_trees_give_the_same_residuals(monkeypatch):
    # trees move in chunks; no chunk size changes the residuals or where
    # they are largest (random blocks: the largest is at one tree only)
    cat = random_blocks(mult2_ring(), 0)
    whole = cat.coherence("pentagon"), cat.coherence("hexagon")
    assert whole[0][0] == pytest.approx(reference_pentagon(cat), rel=1e-12)
    for chunk in (1, 2, 3, 5):
        monkeypatch.setattr(skeletal, "_CHUNK", chunk)
        assert (cat.coherence("pentagon"), cat.coherence("hexagon")) == whole
