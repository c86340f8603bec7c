"""The integer F/R tables of a fusion ring against the per-key reference of
``tests/index_reference.py``, the JSON round trip through them, every F/R
schema failure with its pointer, and the array form of the ring axioms
against their loop form."""

import copy
import itertools
import json

import numpy as np
import pytest

import index_reference as ref
from test_annulus import _gauged, _mirror
from utcat import io_schemas as io
from utcat.basis_change import relabel_category
from utcat.cli import EXIT_INPUT, main
from utcat.errors import SchemaError
from utcat.fixtures import FIXTURE_BUILDERS, fibonacci, mult2_ring, random_blocks, su2k
from utcat.fusion_ring import check_ring_axioms


def _renamed(cat, seed):
    perm = np.random.default_rng(seed).permutation(len(cat.ring.labels))
    return relabel_category(cat, {x: f"x{perm[k]:02d}" for k, x in enumerate(cat.ring.labels)})


CASES = {
    **{name: build for name, build in FIXTURE_BUILDERS.items()},
    **{f"{name}_mirror": (lambda b=build: _mirror(b())) for name, build in FIXTURE_BUILDERS.items()},
    **{f"su2_{k}": (lambda k=k: su2k(k)) for k in range(6, 9)},
    **{f"{name}_renamed": (lambda b=build: _renamed(b(), 0)) for name, build in FIXTURE_BUILDERS.items()},
    **{f"{name}_gauge{seed}": (lambda b=build, s=seed: _gauged(b(), s))
       for name, build in FIXTURE_BUILDERS.items() for seed in (0, 1)},
    "mult2_random": lambda: random_blocks(mult2_ring(), 0),
}


def _reference_f_payload(cat) -> dict:
    """The "F" object as the per-key writer built it: every block without a
    unit leg, cut into its nonzero channel sub-blocks by index_groups."""
    out, unit = {}, cat.ring.unit
    for key in ref.f_keys(cat.ring):
        if unit in key[:3]:
            continue
        idx, M, sub = ref.f_index(cat.ring, *key), ref.fmat(cat, *key), {}
        for e, rows in ref.index_groups(idx.left).items():
            for f, cols in ref.index_groups(idx.right).items():
                if np.any(M[rows, cols]):
                    sub[f"{e},{f}"] = [[[float(z.real), float(z.imag)] for z in row]
                                       for row in M[rows, cols]]
        out["{},{},{};{}".format(*key)] = sub
    return out


def _reference_f_blocks(ring, fraw: dict) -> dict:
    """The F blocks of an "F" object as the per-key reader assembled them."""
    F = {}
    for key, sub in fraw.items():
        a, b, c, d = key.replace(";", ",").split(",")
        idx = ref.f_index(ring, a, b, c, d)
        lgrp, rgrp = ref.index_groups(idx.left), ref.index_groups(idx.right)
        block = np.zeros((len(idx.left), len(idx.right)), dtype=complex)
        for pair, rows in sub.items():
            e, f = pair.split(",")
            block[lgrp[e], rgrp[f]] = np.array([[complex(*v) for v in row] for row in rows])
        F[(a, b, c, d)] = block
    return F


@pytest.mark.parametrize("name", sorted(CASES))
def test_tables_and_stacks_equal_the_per_key_reference(name):
    cat = CASES[name]()
    ring = cat.ring
    keys = ref.f_keys(ring)
    lab = ring.labels
    assert [tuple(lab[x] for x in k) for k in ring.ftable.keys.tolist()] == keys
    assert [tuple(lab[x] for x in k) for k in ring.rtable.keys.tolist()] == ref.r_keys(ring)
    # the slot rows of every block, and of one zero block where there is one
    have = set(keys)
    zero = [k for k in itertools.product(lab, repeat=4) if k not in have][:1]
    for key in keys + [(lab[-1], lab[-1], lab[-1], lab[0])] + zero:
        t = ring.ftable
        k = t.number[tuple(ring.index[x] for x in key)]
        rows = slice(0, 0) if k < 0 else slice(t.start[k], t.start[k] + t.size[k])
        idx = ref.f_index(ring, *key)
        for side, want in ((t.left, idx.left), (t.right, idx.right)):
            assert [(lab[x], i, j) for x, i, j in side[rows].tolist()] == list(want)
    for k, key in enumerate(keys):  # the first slot of each channel
        idx = ref.f_index(ring, *key)
        for side, pos in enumerate((idx.lpos, idx.rpos)):
            for (x, i, j), p in pos.items():
                if i == j == 0:
                    assert ring.ftable.chan[k, side, ring.index[x]] == p
    for kind in ("F", "R") if cat.braided else ("F",):
        want = {len(M[0]): (kpos, left, right, M) for _, kpos, left, right, M in ref.blocks(cat, kind)}
        got = {M.shape[1]: (kpos, left, right, M) for kpos, left, right, M in cat._blocks(kind)}
        assert sorted(got) == sorted(want)
        for n, arrays in want.items():
            for x, y in zip(got[n], arrays):
                assert x.shape == y.shape and np.array_equal(x, y)


@pytest.mark.parametrize("name", sorted(CASES))
def test_json_round_trip_is_exact(name):
    cat = CASES[name]()
    payload = io.cat_to_json(cat)
    assert payload["F"] == _reference_f_payload(cat)
    again = io.cat_from_json(json.loads(json.dumps(payload)))
    assert again._F.tobytes() == cat._F.tobytes()
    assert (again._R is None) == (cat._R is None)
    if cat.braided:
        assert again._R.tobytes() == cat._R.tobytes()
        assert payload["R"] == {"{},{};{}".format(*key): [[[z.real, z.imag] for z in row]
                                                         for row in ref.rmat(cat, *key)]
                                for key in ref.block_keys(cat.ring, cat.ring.rtable)}
    for key, M in _reference_f_blocks(cat.ring, payload["F"]).items():
        assert np.array_equal(ref.fmat(again, *key), M)
    assert np.array_equal(relabel_category(again, {})._F, again._F)


# -- schema failures ------------------------------------------------------------

def _fib():
    return io.cat_to_json(fibonacci())


def _set(raw, path, value):
    *head, last = path
    for k in head:
        raw = raw[k]
    if value is None:
        del raw[last]
    else:
        raw[last] = value


def _rename_key(section, old, new):
    def edit(raw):
        raw[section] = {(new if k == old else k): v for k, v in raw[section].items()}
    return edit


TTTT = "tau,tau,tau;tau"
FAILURES = {
    "ragged rows": (lambda raw: _set(raw, ("F", TTTT, "1,1"), [[[1, 0]], [[1, 0], [2, 0]]]),
                    f"/F/{TTTT}/1,1", "ragged"),
    "not a matrix": (lambda raw: _set(raw, ("F", TTTT, "1,1"), [1, 0]),
                     f"/F/{TTTT}/1,1", "list of rows"),
    "non-complex entry": (lambda raw: _set(raw, ("F", TTTT, "tau,1"), [["x"]]),
                          f"/F/{TTTT}/tau,1/0/0", "complex number"),
    "three-part entry": (lambda raw: _set(raw, ("F", TTTT, "tau,1"), [[[1, 0, 0]]]),
                         f"/F/{TTTT}/tau,1/0/0", "complex number"),
    "disallowed channel pair": (lambda raw: _set(raw, ("F", "tau,tau,tau;1", "1,1"), [[[1, 0]]]),
                                "/F/tau,tau,tau;1/1,1", "not allowed"),
    "unknown channel label": (lambda raw: _set(raw, ("F", TTTT, "zeta,1"), [[[1, 0]]]),
                              f"/F/{TTTT}/zeta,1", "not allowed"),
    "bad channel pair": (lambda raw: _set(raw, ("F", TTTT, "1"), [[[1, 0]]]),
                         f"/F/{TTTT}/1", "2-part key"),
    "wrong submatrix shape": (lambda raw: _set(raw, ("F", TTTT, "1,tau"), [[[1, 0], [0, 0]]]),
                              f"/F/{TTTT}/1,tau", "submatrix shape (1, 2) != (1, 1)"),
    "not an F object": (lambda raw: _set(raw, ("F", TTTT), [1]), f"/F/{TTTT}", "keyed by 'e,f'"),
    "bad F key": (_rename_key("F", TTTT, "tau,tau;tau"), "/F/tau,tau;tau", "4-part key"),
    "missing block": (lambda raw: _set(raw, ("F", TTTT), None), f"/F/{TTTT}", "missing"),
    "wrong R shape": (lambda raw: _set(raw, ("R", "tau,tau;1"), [[[1, 0], [0, 0]]]),
                      "/R/tau,tau;1", "R block shape (1, 2) != (1, 1)"),
    "non-complex R entry": (lambda raw: _set(raw, ("R", "tau,tau;1"), [[None]]),
                            "/R/tau,tau;1/0/0", "complex number"),
    "missing R block": (lambda raw: _set(raw, ("R", "tau,tau;tau"), None),
                        "/R/tau,tau;tau", "missing"),
    "unknown F label": (_rename_key("F", "tau,tau,tau;1", "zeta,tau,tau;1"),
                        "/F/zeta,tau,tau;1", "unknown label 'zeta'"),
    "unknown R label": (_rename_key("R", "tau,tau;1", "tau,zeta;1"),
                        "/R/tau,zeta;1", "unknown label 'zeta'"),
    "unit-leg F block": (lambda raw: _set(raw, ("F", "1,tau,tau;tau"), {"tau,tau": [[[0.5, 0]]]}),
                         "/F/1,tau,tau;tau", "not the identity"),
    "empty unit-leg F block": (lambda raw: _set(raw, ("F", "tau,1,tau;tau"), {}),
                               "/F/tau,1,tau;tau", "not the identity"),
    "unit-leg R block": (lambda raw: _set(raw, ("R", "1,tau;tau"), [[[-1, 0]]]),
                         "/R/1,tau;tau", "not the identity"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_every_f_r_schema_failure_has_its_pointer(case):
    edit, pointer, message = FAILURES[case]
    raw = _fib()
    edit(raw)
    with pytest.raises(SchemaError) as exc:
        io.cat_from_json(raw)
    assert exc.value.pointer == pointer
    assert message in str(exc.value)


def test_unit_leg_identity_blocks_are_accepted():
    raw = _fib()
    raw["F"]["1,tau,tau;tau"] = {"tau,tau": [[[1.0, 0.0]]]}
    raw["R"]["tau,1;tau"] = [[1.0]]
    cat = io.cat_from_json(raw)
    assert cat.verify_pentagon() < 1e-12 and cat.verify_hexagon() < 1e-12


def test_zero_block_keys_are_accepted_empty():
    raw = _fib()
    raw["F"]["1,1,1;tau"] = {}
    raw["R"]["1,1;tau"] = []
    assert io.cat_from_json(raw).verify_pentagon() < 1e-12


def test_the_first_failure_in_payload_order_is_raised():
    # a bad entry in the first key wins over a structural failure later on
    raw = _fib()
    raw["F"] = {TTTT: {**raw["F"][TTTT], "1,1": [["x"]]}, "tau,tau,tau;1": {"1,1": [[1]]}}
    with pytest.raises(SchemaError) as exc:
        io.cat_from_json(raw)
    assert exc.value.pointer == f"/F/{TTTT}/1,1/0/0"
    # and a structural failure in the first key wins over a bad entry later on
    raw["F"] = {TTTT: {"1,1": [[1], [2, 3]]}, "tau,tau,tau;1": {"tau,tau": [["x"]]}}
    with pytest.raises(SchemaError) as exc:
        io.cat_from_json(raw)
    assert exc.value.pointer == f"/F/{TTTT}/1,1"
    # within one sub-block the shape is checked after the entries
    raw["F"] = {TTTT: {"1,1": [[[1, 0], "x"]]}}
    with pytest.raises(SchemaError) as exc:
        io.cat_from_json(raw)
    assert exc.value.pointer == f"/F/{TTTT}/1,1/0/1"


def test_bare_reals_and_pairs_mix():
    raw = _fib()
    raw["F"][TTTT]["1,1"] = [[0.6180339887498948]]
    raw["R"]["tau,tau;tau"] = [[(-0.30901699437494734, 0.9510565162951536)]]
    assert io.cat_from_json(raw)._F.tobytes() == fibonacci()._F.tobytes()


@pytest.mark.parametrize("section,key", [("F", "tau,tau,tau;1"), ("R", "tau,tau;1")])
def test_unknown_label_in_a_block_key_exits_as_input_error(capsys, tmp_path, section, key):
    raw = _fib()
    _rename_key(section, key, key.replace("tau", "zeta", 1))(raw)
    p = tmp_path / "zeta.json"
    p.write_text(json.dumps(raw))
    code = main(["validate", str(p)])
    rep = json.loads(capsys.readouterr().out)
    assert code == EXIT_INPUT
    assert rep["pointer"] == f"/{section}/{key.replace('tau', 'zeta', 1)}"


# -- ring axioms: arrays against loops ---------------------------------------------

def _raw_ring(ring):
    mult = {(x, y, z): ring.N(x, y, z) for x, y, z in itertools.product(ring.labels, repeat=3)
            if ring.N(x, y, z)}
    return list(ring.labels), ring.unit, dict(ring.dual), mult


def _mutations(ring, seed):
    """The ring data and seeded corruptions of it: a bumped, a dropped and a
    negative multiplicity, a broken dual and a broken unit row."""
    rng = np.random.default_rng(seed)
    labels, unit, dual, mult = _raw_ring(ring)
    keys = sorted(mult)
    pick = keys[rng.integers(len(keys))]
    out = [(labels, unit, dual, mult)]
    out.append((labels, unit, dual, {**mult, pick: mult[pick] + 1}))
    out.append((labels, unit, dual, {k: v for k, v in mult.items() if k != pick}))
    out.append((labels, unit, dual, {**mult, pick: -1}))
    x = labels[rng.integers(len(labels))]
    out.append((labels, unit, {**dual, x: labels[(labels.index(dual[x]) + 1) % len(labels)]}, mult))
    y = labels[rng.integers(len(labels))]
    out.append((labels, unit, dual, {**mult, (unit, y, y): 2, (y, unit, unit): 1}))
    return out


@pytest.mark.parametrize("name", [*FIXTURE_BUILDERS, "mult2"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ring_axioms_equal_the_loop_reference(name, seed):
    ring = mult2_ring() if name == "mult2" else FIXTURE_BUILDERS[name]().ring
    for labels, unit, dual, mult in _mutations(ring, seed):
        want = ref.check_ring_axioms(labels, unit, copy.deepcopy(dual), mult)
        assert check_ring_axioms(labels, unit, dual, mult) == want
