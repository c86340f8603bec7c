import numpy as np
import pytest

from utcat.algebra_object import (
    group_algebra_object,
    opposite_object,
    trivial_action_object,
)
from utcat.annulus import build_annulus, z_state
from utcat.basis_change import relabel_category
from utcat.coend import (
    CoendAlgebra,
    GradedElement,
    norm_sandwich_check,
)
from utcat.errors import LabelMismatch
from utcat.fixtures import fibonacci, ising, vec_zn

RENAMES = {
    "fib": (fibonacci, {"tau": "0tau"}),            # flips the sort order
    "ising": (ising, {"psi": "zzz", "sigma": "asig"}),
    "vec_z3": (lambda: vec_zn(3), {"g1": "h2", "g2": "h1"}),
}


@pytest.mark.parametrize("name", sorted(RENAMES))
def test_relabeled_category_satisfies_axioms(name):
    builder, rename = RENAMES[name]
    cat = relabel_category(builder(), rename)
    assert cat.verify_pentagon() < 1e-10
    assert cat.verify_hexagon() < 1e-10
    assert cat.verify_zigzag() < 1e-10
    assert cat.verify_unitarity() < 1e-10


def test_identity_relabel_is_identity():
    cat = fibonacci()
    again = relabel_category(cat, {})
    assert np.array_equal(again._F, cat._F) and np.array_equal(again._R, cat._R)


def test_rejects_non_bijections():
    with pytest.raises(LabelMismatch):
        relabel_category(fibonacci(), {"tau": "1"})


@pytest.mark.parametrize("name", sorted(RENAMES))
def test_annulus_transports(name):
    builder, rename = RENAMES[name]
    cat = builder()
    ann = build_annulus(cat)
    ann2 = build_annulus(relabel_category(cat, rename))
    rn = {x: rename.get(x, x) for x in cat.ring.labels}
    assert {rn[X]: n for X, n in ann.fibers.items()} == dict(ann2.fibers)
    z1, z2 = z_state(ann), z_state(ann2)
    assert abs(z1["positivity_floor"] - z2["positivity_floor"]) < 1e-9


def test_coend_norms_transport():
    cat = fibonacci()
    rename = {"tau": "0tau"}
    reports = []
    for c, X in ((cat, "tau"), (relabel_category(cat, rename), "0tau")):
        ann = build_annulus(c)
        co = CoendAlgebra(opposite_object(ann), ann)
        rng = np.random.default_rng(3)
        vals = []
        for _ in range(5):
            T_coeff = rng.normal(size=co.dims[X]) + 1j * rng.normal(size=co.dims[X])
            rep = norm_sandwich_check(co, GradedElement({X: T_coeff}))
            vals.append((rep["vacuum_norm"], rep["op_norm"]))
        reports.append(vals)
    # identical draws, identical norms: the relabeled basis is a permutation
    assert np.allclose(reports[0], reports[1], atol=1e-9)


def test_group_structure_constants_transport():
    cat = vec_zn(3)
    cat2 = relabel_category(cat, {"g1": "h2", "g2": "h1"})
    for c in (cat, cat2):
        co = CoendAlgebra(trivial_action_object(c), group_algebra_object(c))
        # δ_g δ_h = δ_{gh} exactly, whatever the labels are called
        labels = list(co.support)
        for g in labels:
            for h in labels:
                prod = co.mul(GradedElement({g: np.ones(1)}),
                              GradedElement({h: np.ones(1)}))
                tot = sum(float(np.sum(np.abs(v))) for v in prod.comps.values())
                assert abs(tot - 1.0) < 1e-12
