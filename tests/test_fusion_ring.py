import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from utcat.basis_change import relabel_category
from utcat.errors import RingAxiomError, UnknownLabel
from utcat.fixtures import FIXTURE_BUILDERS, fibonacci, ising, mult2_ring, vec_zn
from utcat.fusion_ring import check_ring_axioms, validate_ring

# closed-form dimensions; the categories read theirs off F
PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _global_dim_sq(cat) -> float:
    return sum(cat.d(x) ** 2 for x in cat.ring.labels)


def test_fib_dimensions_match_golden_ratio():
    cat = fibonacci()
    assert cat.d("1") == pytest.approx(1.0, abs=1e-15)
    assert cat.d("tau") == pytest.approx(PHI, abs=1e-15)
    assert _global_dim_sq(cat) == pytest.approx(1.0 + PHI**2, abs=1e-14)


def test_ising_dimensions():
    cat = ising()
    assert cat.d("sigma") == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert cat.d("psi") == pytest.approx(1.0, abs=1e-15)
    assert _global_dim_sq(cat) == pytest.approx(4.0, abs=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
def test_pointed_rings_are_group_tables(n):
    cat = vec_zn(n)
    ring = cat.ring
    for x in ring.labels:
        assert cat.d(x) == pytest.approx(1.0, abs=1e-15)
    # fusion is exactly the group multiplication table
    for i in range(n):
        for j in range(n):
            out = ring.fuse(f"g{i}", f"g{j}")
            assert out == {f"g{(i + j) % n}": 1}


def test_fuse_and_N_agree():
    ring = ising().ring
    assert ring.fuse("sigma", "sigma") == {"1": 1, "psi": 1}
    assert ring.N("sigma", "sigma", "psi") == 1
    assert ring.N("sigma", "psi", "psi") == 0


def test_unknown_label_raises():
    ring = fibonacci().ring
    with pytest.raises(UnknownLabel):
        ring.N("tau", "bogus", "1")
    with pytest.raises(UnknownLabel):
        ring.N("tau", "tau", "bogus")
    for query in (ring.fuse, ring.channels):
        for x, y in (("bogus", "tau"), ("tau", "bogus")):
            with pytest.raises(UnknownLabel) as exc:
                query(x, y)
            assert exc.value.args[0] == "bogus"
    with pytest.raises(UnknownLabel) as exc:
        fibonacci().d("bogus")
    assert exc.value.args[0] == "bogus"


@pytest.mark.parametrize("name", [*FIXTURE_BUILDERS, "mult2"])
def test_channel_table_agrees_with_N_and_fuse(name):
    ring = mult2_ring() if name == "mult2" else FIXTURE_BUILDERS[name]().ring
    for x in ring.labels:
        for y in ring.labels:
            chans = ring.channels(x, y)
            assert [z for z, _ in chans] == sorted(z for z, _ in chans)
            assert chans == tuple((z, ring.N(x, y, z)) for z in ring.labels
                                  if ring.N(x, y, z))
            assert dict(chans) == ring.fuse(x, y)


def test_fusion_closure_is_dual_closed_and_contains_unit():
    ring = ising().ring
    s = ring.fusion_closure(["sigma"], depth=0)
    assert "1" in s and "sigma" in s
    s2 = ring.fusion_closure(["sigma"], depth=2)
    assert s2 == ("1", "psi", "sigma")
    for x in s2:
        assert ring.dual[x] in s2


def test_missing_names_what_a_support_lacks():
    ring = ising().ring
    assert ring.missing(ring.labels) == []
    assert ring.missing(("1", "psi")) == []
    assert ring.missing(("1", "sigma")) == ["psi"]
    assert ring.missing(()) == ["1"]
    # channels and duals outside ``within`` do not count; the unit always does
    assert ring.missing(("1", "sigma"), within=("1", "sigma")) == []
    assert ring.missing(("sigma",), within=("sigma",)) == ["1"]
    with pytest.raises(UnknownLabel):
        ring.missing(("1", "nope"))


def test_validate_rejects_broken_unit():
    raw = {
        "labels": ["1", "x"],
        "unit": "1",
        "dual": {"1": "1", "x": "x"},
        "mult": {("1", "1", "1"): 1, ("1", "x", "x"): 0, ("x", "1", "x"): 1,
                 ("x", "x", "1"): 1},
    }
    with pytest.raises(RingAxiomError) as exc:
        validate_ring(raw)
    axioms = {v.axiom for v in exc.value.violations}
    assert "unit_left" in axioms


def test_validate_rejects_broken_associativity():
    # x⊗x = 1 ⊕ x but dual table claims x self-dual with N(x,x,1)=1 AND
    # N(x,y,*) chosen to break the associativity count
    raw = {
        "labels": ["1", "x", "y"],
        "unit": "1",
        "dual": {"1": "1", "x": "x", "y": "y"},
        "mult": {
            ("1", "1", "1"): 1,
            ("1", "x", "x"): 1, ("x", "1", "x"): 1,
            ("1", "y", "y"): 1, ("y", "1", "y"): 1,
            ("x", "x", "1"): 1, ("y", "y", "1"): 1,
            ("x", "y", "y"): 1,  # but (y, x, *) left empty: breaks Frobenius/assoc
        },
    }
    violations = check_ring_axioms(raw["labels"], raw["unit"], raw["dual"], raw["mult"])
    assert violations
    axioms = {v.axiom for v in violations}
    assert axioms & {"associativity", "frobenius_reciprocity"}


def test_violation_reporting_carries_witness():
    raw_mult = {("1", "1", "1"): 1, ("1", "x", "x"): 1, ("x", "1", "x"): 1}
    violations = check_ring_axioms(["1", "x"], "1", {"1": "1", "x": "x"}, raw_mult)
    assert any(v.axiom == "duality" and "x" in v.witness for v in violations)
    d = violations[0].as_dict()
    assert set(d) == {"axiom", "witness", "detail"}


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=1, max_value=12), seed=st.integers(0, 2**16))
def test_random_cyclic_group_rings_validate(n, seed):
    # any relabelled Z/n multiplication table is a fusion ring
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    names = [f"e{int(k):02d}" for k in perm]
    mult = {}
    for i in range(n):
        for j in range(n):
            mult[(names[i], names[j], names[(i + j) % n])] = 1
    ring = validate_ring({
        "labels": names,
        "unit": names[0],
        "dual": {names[k]: names[(-k) % n] for k in range(n)},
        "mult": mult,
    })
    cat = relabel_category(vec_zn(n), {f"g{k}": names[k] for k in range(n)})
    assert cat.ring == ring
    assert cat.d(names[1 % n]) == pytest.approx(1.0, abs=1e-15)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_corrupting_an_entry_is_detected(seed):
    rng = np.random.default_rng(seed)
    n = 4
    names = [f"g{k}" for k in range(n)]
    mult = {}
    for i in range(n):
        for j in range(n):
            mult[(names[i], names[j], names[(i + j) % n])] = 1
    # bump one non-unit entry by one
    i, j = rng.integers(1, n, size=2)
    mult[(names[i], names[j], names[(i + j) % n])] += 1
    violations = check_ring_axioms(
        names, "g0", {names[k]: names[(-k) % n] for k in range(n)}, mult
    )
    assert violations
