"""Acceptance suite: one pass/fail line per criterion, stated tolerances.

Run with `pytest -v tests/test_acceptance.py` (add `-s` to see the lines as
they print; they are also echoed into captured output on failure).
"""

import time

import numpy as np
import pytest

from utcat.algebra_object import (
    group_algebra_object,
    opposite_object,
    pp_check,
    trivial_action_object,
    validate_algebra_object,
)
from utcat.annulus import build_annulus, z_state
from utcat.basis_change import relabel_category
from utcat.coend import (
    CoendAlgebra,
    GradedElement,
    faithfulness_probe,
    norm_sandwich_check,
)
from utcat.errors import NotSemisimpleInput
from utcat.fixtures import FIXTURE_BUILDERS, fibonacci, ising, vec_zn
from utcat.inclusion import (
    HilbertSpaceObject,
    commutant_blocks,
    corrupt_correspondence,
    discreteness_report,
    hom_count,
    ind_check,
    realize,
)
from utcat.semicircular import (
    BaseAlgebra,
    build_fock,
    catalan,
    covariance_from_automorphisms,
    covariance_from_vectors,
    semicircular_ops,
    vacuum_expectation,
)


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _braided_fixtures():
    out = {"fib": fibonacci(), "ising": ising()}
    for n in range(2, 7):
        out[f"vec_z{n}"] = vec_zn(n)
    return out


def test_criterion_1_axiom_suite():
    t0 = time.perf_counter()
    worst = 0.0
    for name, cat in _braided_fixtures().items():
        worst = max(worst, cat.verify_pentagon(), cat.verify_hexagon(),
                    cat.verify_zigzag(), cat.verify_unitarity())
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-10 and elapsed < 10.0,
            f"max residual {worst:.2e} over 7 fixtures in {elapsed:.2f}s")


def test_criterion_2_pimsner_popa_sandwich():
    t0 = time.perf_counter()
    ok, labels, used = True, 0, 0.0
    for name, build in FIXTURE_BUILDERS.items():
        cat = build()
        ann = build_annulus(cat)
        for X in cat.ring.labels:
            rep = pp_check(ann, X, 1000, seed=0)
            ok &= (rep["violations"] == 0
                   and abs(rep["bound"] - cat.d(X) ** 2) < 1e-8
                   and rep["max_ratio"] <= rep["bound"] + 1e-8)
            labels += 1
            if cat.d(X) > 1.0 + 1e-9:
                used = max(used, rep["max_ratio"] / rep["bound"])
            if (name, X) == ("fib", "tau"):
                fib = rep
    ok &= abs(fib["bound"] - 2.6180339887) < 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    _report(2, ok, f"1000 samples on each of {labels} labels of "
                   f"{len(FIXTURE_BUILDERS)} fixtures, 0 violations, at most "
                   f"{used:.3%} of d_X² > 1 used (fib: max ratio "
                   f"{fib['max_ratio']:.6f} ≤ {fib['bound']:.10f}), {elapsed:.2f}s")


def _coend_fixtures():
    z3 = vec_zn(3)
    fib = fibonacci()
    ann = build_annulus(fib)
    return {
        "z3": CoendAlgebra(trivial_action_object(z3),
                           group_algebra_object(z3)),
        "fib": CoendAlgebra(opposite_object(ann), ann),
    }


def test_criterion_3_coend_sandwich_and_faithfulness():
    t0 = time.perf_counter()
    violations, kernel_trivial = 0, True
    for name, co in _coend_fixtures().items():
        rng = np.random.default_rng(0)
        for k in range(1000):
            X = co.support[k % len(co.support)]
            T = GradedElement({X: rng.normal(size=co.dims[X])
                               + 1j * rng.normal(size=co.dims[X])})
            rep = norm_sandwich_check(co, T)
            if not (rep["left_ok"] and rep["right_ok"]):
                violations += 1
        probe = faithfulness_probe(co, trials=50, seed=0)
        if (probe["cyclic_rank"] != probe["expected_rank"]
                or probe["vacuum_gram_floor"] <= 0):
            kernel_trivial = False
    elapsed = time.perf_counter() - t0
    _report(3, violations == 0 and kernel_trivial and elapsed < 60.0,
            f"2×1000 homogeneous samples, {violations} violations, "
            f"Gram kernel trivial, {elapsed:.2f}s")


def _group_table_residual(cat) -> float:
    """Crossed-product structure constants vs. direct group multiplication."""
    co = CoendAlgebra(trivial_action_object(cat), group_algebra_object(cat))
    ring = cat.ring
    worst = 0.0
    for g in ring.labels:
        for h in ring.labels:
            gh = next(iter(ring.fuse(g, h)))        # brute-force group table
            prod = co.mul(GradedElement({g: np.ones(1)}),
                          GradedElement({h: np.ones(1)}))
            for X in co.support:
                got = prod.comps.get(X, np.zeros(1))[0]
                worst = max(worst, abs(got - (1.0 if X == gh else 0.0)))
            # 𝔼 = identity coefficient
            e = co.canonical_expectation(GradedElement({g: np.ones(1)}))
            want = 1.0 if g == ring.unit else 0.0
            worst = max(worst, abs(e[0] - want))
    return worst


def test_criterion_4_group_algebra_oracle():
    worst = max(_group_table_residual(vec_zn(n)) for n in range(2, 7))
    _report(4, worst < 1e-12,
            f"ℤ/n crossed products, n∈{{2..6}}, worst deviation {worst:.2e}")


def test_criterion_5_block_decomposition():
    rng = np.random.default_rng(2024)
    recovered = 0
    for _ in range(50):
        nlab = int(rng.integers(1, 5))
        dims = {f"K{i}": int(rng.integers(1, 6)) for i in range(nlab)}
        h = HilbertSpaceObject(dims)
        corr = realize(h, rng=rng)
        if commutant_blocks(corr).dims() == h.dims:
            recovered += 1
    hom_ok = True
    for _ in range(20):
        h1 = HilbertSpaceObject({"a": int(rng.integers(0, 4)),
                                 "b": int(rng.integers(0, 4))})
        h2 = HilbertSpaceObject({"a": int(rng.integers(0, 4)),
                                 "b": int(rng.integers(0, 4))})
        # cross_check raises on any Schur-count / explicit-solve mismatch
        hom_count(h1, h2, cross_check=True)
    _report(5, recovered == 50 and hom_ok,
            f"{recovered}/50 planted dimension vectors recovered exactly; "
            f"hom counts match explicit solves")


def test_criterion_6_discreteness_chain():
    ok = True
    for name, cat in _braided_fixtures().items():
        ann = build_annulus(cat)
        omega = z_state(ann)["omega"]
        rep = discreteness_report(ann, omega)
        ok &= rep["chain_ok"] and rep["discrete"] and rep["pqr"] and rep["ind"]
    corrupted_flagged = True
    for seed in range(3):
        corr = realize(HilbertSpaceObject({"a": 3, "b": 2}),
                       rng=np.random.default_rng(seed))
        bad = corrupt_correspondence(corr)
        corrupted_flagged &= ind_check(bad)["verdict"] == "NOT-IND"
    _report(6, ok and corrupted_flagged,
            "discrete ⇒ pqr ⇒ ind on all 7 fixtures; corruptions NOT-IND")


def test_criterion_7_annulus_cardinality():
    worst_assoc, worst_floor, card_ok = 0.0, 0.0, True
    for name, cat in _braided_fixtures().items():
        ann = build_annulus(cat)
        S = ann.meta["support"]
        card_ok &= ann.n(cat.ring.unit) == len(S)
        res = validate_algebra_object(ann)
        worst_assoc = max(worst_assoc, res["associativity"])
        worst_floor = min(worst_floor, z_state(ann)["positivity_floor"])
    _report(7, card_ok and worst_assoc < 1e-9 and worst_floor >= -1e-10,
            f"dim 𝒟(1)=|S| on all braided fixtures; assoc {worst_assoc:.1e}; "
            f"z-state floor {worst_floor:.1e}")


def test_criterion_8_semicircular_moments():
    t0 = time.perf_counter()
    eta1 = covariance_from_vectors([np.array([1.0])])
    fam = semicircular_ops(build_fock(eta1, 10))
    cat_err = max(abs(vacuum_expectation(fam, [("X", 0)] * (2 * m))[0, 0]
                      - catalan(m)) for m in range(5))

    eta2 = covariance_from_vectors([np.array([1.0, 0.0]),
                                    np.array([0.0, 1.0])])
    fam2 = semicircular_ops(build_fock(eta2, 4))
    sec_err = max(abs(vacuum_expectation(fam2, [("X", i), ("X", j)])[0, 0]
                      - (1.0 if i == j else 0.0))
                  for i in (0, 1) for j in (0, 1))

    alg = BaseAlgebra((2,))
    th = 0.3
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                 dtype=complex)
    ad = np.zeros((4, 4), dtype=complex)
    for c, e in enumerate(alg.basis):
        ad[:, c] = alg.coords(u @ e @ u.conj().T)
    sym = covariance_from_automorphisms([ad], alg).trace_symmetry_residual()
    elapsed = time.perf_counter() - t0
    _report(8, cat_err < 1e-9 and sec_err < 1e-12 and sym < 1e-12
            and elapsed < 20.0,
            f"Catalan err {cat_err:.1e}; E(XᵢXⱼ) err {sec_err:.1e}; "
            f"trace symmetry {sym:.1e}; {elapsed:.2f}s")


def test_criterion_9_basis_independence():
    # Permuted tree bases come from bijective relabelings, which flip every
    # sorted enumeration.  Canonically specified quantities — norms of
    # transported elements, spectra, structure constants, verdicts — must
    # agree across the permutation to 1e-9.
    worst = 0.0

    # criterion 2 under permutation: fib annulus with the sort order flipped
    fib = fibonacci()
    fib_p = relabel_category(fib, {"tau": "0tau"})
    norms = []
    for cat, X in ((fib, "tau"), (fib_p, "0tau")):
        ann = build_annulus(cat)
        sq = ann.square_algebra(X)
        g = ann.ground()
        s = np.ones(sq.dim)
        T = sq.mul(sq.star(s), s)
        rep = pp_check(ann, X, 200, seed=0)
        norms.append((sq.op_norm(T), g.op_norm(sq.expect(T)), rep["bound"],
                      rep["violations"]))
    worst = max(worst, *(abs(a - b) for a, b in zip(norms[0], norms[1])))

    # criterion 3 under permutation: coend norms and Gram spectra, compared
    # grade by grade through the renaming
    def coend_summary(c):
        ann = build_annulus(c)
        co = CoendAlgebra(opposite_object(ann), ann)
        by_grade = {}
        for X in co.support:
            T = GradedElement({X: np.ones(co.dims[X])})
            rep = norm_sandwich_check(co, T)
            by_grade[X] = (rep["vacuum_norm"], rep["op_norm"])
        probe = faithfulness_probe(co, trials=20, seed=0)
        return (by_grade, np.sort(np.linalg.eigvalsh(co.gram())),
                probe["cyclic_rank"] == probe["expected_rank"])

    z3 = vec_zn(3)
    for cat, rename in ((fib, {"tau": "0tau"}),
                        (z3, {"g1": "h2", "g2": "h1"})):
        grades, spec, full = coend_summary(cat)
        grades_p, spec_p, full_p = coend_summary(relabel_category(cat, rename))
        for X, pair in grades.items():
            pair_p = grades_p[rename.get(X, X)]
            worst = max(worst, *(abs(a - b) for a, b in zip(pair, pair_p)))
        worst = max(worst, float(np.max(np.abs(spec - spec_p))))
        worst = max(worst, float(full != full_p))

    # criterion 4 under permutation: renamed group structure constants
    for n in (2, 3, 5):
        cat_p = relabel_category(vec_zn(n),
                                 {f"g{k}": f"h{(n - k) % n}"
                                  for k in range(1, n)})
        worst = max(worst, _group_table_residual(cat_p))

    _report(9, worst < 1e-9,
            f"criteria 2–4 re-run under permuted tree bases; "
            f"max reported deviation {worst:.2e}")
