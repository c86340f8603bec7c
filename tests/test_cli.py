import json

import numpy as np
import pytest

from utcat import io_schemas as io
from utcat.algebra_object import (AlgebraObject, group_algebra_object,
                                  validate_algebra_object, worst_residual)
from utcat.annulus import _assemble, build_annulus
from utcat import cli, semicircular, wire
from utcat.basis_change import relabel_category
from utcat.cli import main
from utcat.errors import AxiomViolation, PositivityFailure, RingAxiomError, SchemaError
from utcat.fixtures import FIXTURE_BUILDERS, fibonacci, ising, vec_zn
from utcat.skeletal import SkeletalUTC, _block
from utcat.semicircular import (
    BaseAlgebra,
    covariance_from_automorphisms,
    covariance_from_vectors,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


# -- io round trips -----------------------------------------------------------

def test_ring_round_trip():
    ring = ising().ring
    again = io.ring_from_json(io.ring_to_json(ring))
    assert again == ring


def test_cat_round_trip_preserves_f_and_r():
    for cat in (fibonacci(), ising(), vec_zn(4)):
        again = io.cat_from_json(io.cat_to_json(cat))
        assert again.verify_pentagon() < 1e-10
        assert np.allclose(again._F, cat._F) and np.allclose(again._R, cat._R)
        for x in cat.ring.labels:
            assert again.d(x) == cat.d(x)


def test_aobj_round_trip():
    cat = ising()
    ann = build_annulus(cat)
    again = io.aobj_from_json(cat, io.aobj_to_json(ann))
    res = validate_algebra_object(again)
    assert max(res["associativity"], res["star_monoidality"]) < 1e-9
    assert again.fibers == {X: n for X, n in ann.fibers.items() if n}


def test_eta_round_trip():
    alg = BaseAlgebra((2,))
    raw = {"index": [0, 1],
           "entries": {"0,0": [[[1, 0]] * 4] * 4,
                       "1,1": [[[1, 0]] * 4] * 4}}
    eta = io.eta_from_json(raw, alg)
    assert eta.index == (0, 1)
    assert np.allclose(eta.stacked[0, 1], 0.0)


def test_schema_errors_carry_pointers():
    with pytest.raises(SchemaError) as exc:
        io.ring_from_json({"labels": ["1"], "unit": "1", "dual": {"1": "1"}})
    assert exc.value.pointer == "/fusion"
    with pytest.raises(SchemaError) as exc:
        io.base_from_json({"blocks": [0]})
    assert exc.value.pointer == "/blocks"
    cat = vec_zn(2)
    raw = io.aobj_to_json(build_annulus(cat))
    raw["unit"] = [[1, 0]] * 5
    with pytest.raises(SchemaError) as exc:
        io.aobj_from_json(cat, raw)
    assert exc.value.pointer == "/unit"


def test_complex_wire_format():
    raw = io.cat_to_json(fibonacci())
    block = raw["F"]["tau,tau,tau;tau"]
    for rows in block.values():
        for row in rows:
            for v in row:
                assert isinstance(v, list) and len(v) == 2


@pytest.mark.parametrize("name", [*FIXTURE_BUILDERS, *cli._ALIASES])
def test_every_fixture_name_and_alias_resolves(name):
    want = FIXTURE_BUILDERS[cli._ALIASES.get(name, name)]()
    got = cli._load_cat(name)
    assert got.ring.labels == want.ring.labels
    assert got.ring.dual == want.ring.dual


# -- exit codes ----------------------------------------------------------------

def test_validate_bundled_fixture(capsys):
    code, rep = run(capsys, "validate", "fib.json")
    assert code == 0
    assert rep["residuals"]["pentagon"] < 1e-10
    assert rep["seed"] == 0 and rep["tolerance"] == 1e-9


def test_validate_axiom_violation_exits_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"labels": ["1", "x"], "unit": "1",
                             "dual": {"1": "1", "x": "x"},
                             "fusion": {"x,x": {"x": 1}}}))
    code, rep = run(capsys, "validate", str(p))
    assert code == 2
    assert any(v["axiom"] == "duality" for v in rep["violations"])


def test_schema_error_exits_3(capsys, tmp_path):
    p = tmp_path / "frag.json"
    p.write_text("{not json")
    assert run(capsys, "validate", str(p))[0] == 3
    assert run(capsys, "validate", str(tmp_path / "missing.json"))[0] == 3


def test_verify_reports_three_residuals(capsys, tmp_path):
    code, rep = run(capsys, "verify", "ising")
    assert code == 0
    assert rep["pentagon"] < 1e-10 and rep["hexagon"] < 1e-10
    assert rep["zigzag"] < 1e-10
    # dropping R makes the category unbraided: hexagon reported as null
    raw = io.cat_to_json(fibonacci())
    del raw["R"]
    p = tmp_path / "fib_nor.json"
    p.write_text(json.dumps(raw))
    code, rep = run(capsys, "verify", str(p))
    assert code == 0 and rep["hexagon"] is None
    assert rep["worst"]["hexagon"] is None and len(rep["worst"]["pentagon"]) == 5


def test_a_declared_dimension_is_ignored(capsys, tmp_path):
    # a payload declaring d_tau = 2 read zigzag 0.345 when the declared value
    # was used; d is read off F, so the key changes nothing
    raw = io.cat_to_json(fibonacci())
    assert "qdim" not in raw
    raw["qdim"] = {"tau": 2.0}
    p = tmp_path / "fib_qdim.json"
    p.write_text(json.dumps(raw))
    code, rep = run(capsys, "verify", str(p))
    assert code == 0 and rep["zigzag"] <= 1e-15
    assert io.cat_from_json(raw).d("tau") == pytest.approx((1.0 + np.sqrt(5.0)) / 2.0, abs=1e-15)


@pytest.mark.parametrize("token", [float("nan"), float("inf"), [0.0, float("-inf")]])
def test_a_non_finite_f_entry_in_json_exits_3_at_its_pointer(capsys, tmp_path, token):
    # a NaN at the unit entry of F[tau,tau,tau;tau] read pentagon -1.0,
    # hexagon -1.0, zigzag 0.0, "ok": true and exit 0
    raw = io.cat_to_json(fibonacci())
    raw["F"]["tau,tau,tau;tau"]["1,1"][0][0] = token
    p = tmp_path / "fib_nan.json"
    p.write_text(json.dumps(raw))
    for cmd in ("validate", "verify"):
        code, rep = run(capsys, cmd, str(p))
        assert code == 3 and rep["pointer"] == "/F/tau,tau,tau;tau/1,1/0/0"
        assert "finite" in rep["error"]


@pytest.mark.parametrize("v", [float("nan"), [1.0, float("inf")], (float("-inf"), 0)])
def test_complex_readers_refuse_non_finite_numbers(v):
    with pytest.raises(SchemaError) as exc:
        wire.complex_in(v, "/unit/0")
    assert exc.value.pointer == "/unit/0"
    assert wire.complex_array([1.0, [2, 3], v, 4]) == (None, 2)


def test_a_nan_f_entry_fails_verify(capsys, monkeypatch):
    # the residuals propagate the NaN: coherence kept a running maximum that
    # no NaN exceeds, the zig-zag took Python max, the CLI gated r > tol
    cat = fibonacci()
    F = np.array(cat._F)
    t, tau = cat.ring.ftable, cat.ring.index["tau"]
    F[t.offset[t.number[tau, tau, tau, tau]]] = np.nan
    bad = SkeletalUTC(cat.ring, F, cat._R)
    assert all(np.isnan(bad.coherence(c)[0]) for c in ("pentagon", "hexagon"))
    assert np.isnan(bad.verify_zigzag())
    monkeypatch.setattr(cli, "_load_cat", lambda path: bad)
    code, rep = run(capsys, "verify", "fib")
    assert code == 2 and rep["ok"] is False
    assert all(np.isnan(rep[k]) for k in ("pentagon", "hexagon", "zigzag"))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_nan_f_entry_fails_the_annulus_checks(capsys, monkeypatch):
    # F[tau,tau,tau;tau][1,1] = NaN read associativity 0.0, unitality 0.0,
    # star_involution 6.7e-16 and star_monoidality 0.0: each fold took
    # Python max, which drops a NaN, and only the positivity floor refused it
    cat = fibonacci()
    F = np.array(cat._F)
    t, tau = cat.ring.ftable, cat.ring.index["tau"]
    k = t.number[tau, tau, tau, tau]
    F[t.offset[k] + t.size[k] + 1] = np.nan
    bad = SkeletalUTC(cat.ring, F, cat._R)
    with pytest.raises(PositivityFailure, match="'associativity': nan"):
        build_annulus(bad)
    ann = _assemble(bad, bad.ring.labels)
    monkeypatch.setattr(cli, "_load_cat", lambda path: bad)
    monkeypatch.setattr(cli, "_load_aobj", lambda cat, path, args=None: ann)
    code, rep = run(capsys, "aobj-verify", "fib", "annulus")
    assert code == cli.EXIT_ASSERT and rep["ok"] is False
    res = rep["residuals"]
    assert all(np.isnan(res[k]) for k in ("associativity", "unitality",
                                          "star_involution", "star_monoidality"))
    assert worst_residual(res)[0] == "associativity"


def test_worst_location_is_reported_outside_the_residuals(capsys, tmp_path):
    # F[tau,tau,tau;tau] × e^{0.3i}: the worst pentagon reads that block
    cat = fibonacci()
    F = np.array(cat._F)
    _block(cat.ring, cat.ring.ftable, F, ("tau",) * 4)[...] *= np.exp(0.3j)
    p = tmp_path / "bad_fib.json"
    p.write_text(json.dumps(io.cat_to_json(SkeletalUTC(cat.ring, F, cat._R))))
    for cmd in ("validate", "verify"):
        code, rep = run(capsys, cmd, str(p))
        res = rep["residuals"] if cmd == "validate" else rep
        assert code == cli.EXIT_ASSERT and res["pentagon"] > 0.5
        assert set(res) >= {"pentagon", "hexagon", "zigzag"}
        assert "worst" not in rep.get("residuals", {})
        assert rep["worst"]["pentagon"][:4] == ["tau"] * 4
        assert len(rep["worst"]["hexagon"]) == 4


def test_aobj_verify_annulus_round_trip(capsys, tmp_path):
    out = tmp_path / "ann.json"
    code, rep = run(capsys, "annulus", "--cat", "fib", "--out", str(out))
    assert code == 0 and rep["z_state"]["positivity_floor"] >= -1e-10
    code, rep = run(capsys, "aobj-verify", "fib", str(out))
    assert code == 0
    assert max(v for v in rep["residuals"].values() if v > 0) < 1e-9


def test_aobj_verify_reports_every_residual_of_a_degenerate_ground_form(capsys, tmp_path):
    # a random object over Vec(ℤ/3) whose 𝒟(1) trace form is degenerate: an
    # assertion failure with all five residuals, not an error exit
    from test_layout import CASES

    D = CASES["vec_z3_random"]()
    p = tmp_path / "aobj.json"
    p.write_text(json.dumps(io.aobj_to_json(D)))
    code, rep = run(capsys, "aobj-verify", "vec_z3", str(p))
    assert code == cli.EXIT_ASSERT and not rep["ok"]
    want = validate_algebra_object(D, rng=np.random.default_rng(0))
    assert set(rep["residuals"]) == set(want)
    assert rep["residuals"]["positivity_floor"] < 0
    key, worst = worst_residual(rep["residuals"])
    want_key, want_worst = worst_residual(want)
    assert key == want_key and worst == pytest.approx(want_worst, rel=1e-12)
    assert worst > 1.0


def test_a_singular_positive_ground_trace_form_is_refused(capsys, tmp_path):
    # ℂ[x]/(x²) with x* = x satisfies every algebraic axiom, but its trace
    # form diag(1, 0) is singular: aobj-verify fails it even at tol 0.5,
    # and coend and analyze refuse to load it
    from test_layout import dual_numbers

    p = tmp_path / "dual.json"
    p.write_text(json.dumps(io.aobj_to_json(dual_numbers(vec_zn(3)))))
    code, rep = run(capsys, "aobj-verify", "z3", str(p), "--tol", "0.5")
    assert code == cli.EXIT_ASSERT and not rep["ok"]
    assert rep["residuals"]["positivity_floor"] == -1.0
    assert worst_residual(rep["residuals"]) == ("positivity_floor", 1.0)
    for argv in (["coend", "--cat", "z3", "--left", "fiber", "--right", str(p)],
                 ["analyze", "--cat", "z3", "--aobj", str(p)]):
        code, rep = run(capsys, *argv)
        assert code == cli.EXIT_ASSERT
        assert "worst residual 1.000e+00 (positivity_floor)" in rep["error"]


def test_fock_reports_the_level_cut_gaps(capsys, tmp_path):
    # η_ij(1) = diag(1, 1e-6): the level-2 product 1e-12 is cut next to the
    # kept 1e-6
    cov = tmp_path / "eta.json"
    cov.write_text(json.dumps({
        "index": [0, 1],
        "entries": {"0,0": [[[1, 0]]], "1,1": [[[1e-6, 0]]]}}))
    code, rep = run(capsys, "fock", "--cov", str(cov), "--depth", "3",
                    "--moments", "4")
    assert code == 0 and rep["ok"]
    assert rep["level_dims"] == [1, 2, 3, 4]
    assert rep["level_cut_gaps"][:2] == [None, None]
    assert rep["level_cut_gaps"][2:] == [pytest.approx([1e-6, 1e-12])] * 2


def test_annulus_support_restriction(capsys, tmp_path):
    code, rep = run(capsys, "annulus", "--cat", "vec_z4",
                    "--support", "gen=g2,depth=1")
    assert code == 0
    assert rep["support"] == ["g0", "g2"]


def test_coend_group_oracle(capsys):
    code, rep = run(capsys, "coend", "--cat", "z3",
                    "--left", "fiber", "--right", "groupalg")
    assert code == 0
    assert rep["group_oracle_residual"] == 0.0
    assert rep["norm_sandwich"]["violations"] == 0
    assert rep["faithfulness"]["failures"] == 0


def test_group_oracle_refuses_the_group_algebra_in_a_phased_basis(capsys, tmp_path):
    # ℂ[ℤ/3] in the basis e′_g = b(g)·e_g, b = (1, i, −i), is a valid
    # algebra object, but e′_g·e′_h = b(g)b(h)/b(gh)·e′_{gh} is not the group
    # table: e′_1·e′_1 = −i·e′_2
    cat = vec_zn(3)
    ring = cat.ring
    b = dict(zip(ring.labels, (1, 1j, -1j)))
    mult = {(g, h, gh): np.full((1, 1, 1, 1), b[g] * b[h] / b[gh])
            for g in ring.labels for h in ring.labels for gh in ring.fuse(g, h)}
    star = {g: np.full((1, 1), np.conj(b[g]) / b[ring.dual[g]]) for g in ring.labels}
    D = AlgebraObject(cat, {g: 1 for g in ring.labels}, mult, star, np.ones(1))
    assert worst_residual(validate_algebra_object(D))[1] < 1e-15  # 2.1e-16
    p = tmp_path / "phased.json"
    p.write_text(json.dumps(io.aobj_to_json(D)))
    code, rep = run(capsys, "coend", "--cat", "z3", "--left", "fiber", "--right", str(p))
    assert code == 2 and not rep["ok"]
    assert rep["group_oracle_residual"] == pytest.approx(abs(-1j - 1), abs=1e-15)
    assert rep["norm_sandwich"]["violations"] == 0
    assert rep["faithfulness"]["failures"] == 0


def test_no_command_takes_a_truncation_mode(capsys):
    code, rep = run(capsys, "coend", "--cat", "z4", "--left", "fiber", "--right",
                    "groupalg", "--support", "gen=g2,depth=1")
    assert code == 0 and rep["support"] == ["g0", "g2"] and "mode" not in rep
    for argv in (["coend", "--cat", "z4", "--left", "fiber", "--right",
                  "groupalg", "--mode", "strict"], ["verify", "fib", "--mode", "strict"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # an argparse usage error
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["annulus", "--cat", "z4"],
    ["coend", "--cat", "z4", "--left", "fiber", "--right", "groupalg"]],
    ids=["annulus", "coend"])
def test_a_support_closure_that_is_not_fusion_closed_exits_2(capsys, command):
    # gen=g1 at depth 0 closes under duals only: (g0, g1, g3) lacks g1⊗g1
    code, rep = run(capsys, *command, "--support", "gen=g1,depth=0")
    assert code == 2
    assert rep == {"error": "SupportTooSmall: support is missing channels ['g2']"}


def _group_algebra_file(tmp_path, perturb):
    raw = io.aobj_to_json(group_algebra_object(vec_zn(3)))
    if perturb:
        key = next(iter(raw["mult"]))
        raw["mult"][key][0][0][0] = [1.5, 0.0]
    p = tmp_path / ("bad_ga.json" if perturb else "ga.json")
    p.write_text(json.dumps(raw))
    return str(p)


def test_coend_and_analyze_accept_a_valid_json_algebra_object(capsys, tmp_path):
    path = _group_algebra_file(tmp_path, perturb=False)
    code, rep = run(capsys, "coend", "--cat", "z3",
                    "--left", "fiber", "--right", path)
    assert code == 0 and rep["group_oracle_residual"] == 0.0
    code, rep = run(capsys, "analyze", "--cat", "z3", "--aobj", path)
    assert code == 0 and rep["ok"]


@pytest.mark.parametrize("cmd", ["coend", "analyze"])
def test_json_algebra_object_is_validated(capsys, tmp_path, cmd):
    # one multiplication coefficient of the Z3 group algebra off by 1/2
    path = _group_algebra_file(tmp_path, perturb=True)
    argv = (["coend", "--cat", "z3", "--left", "fiber", "--right", path]
            if cmd == "coend" else ["analyze", "--cat", "z3", "--aobj", path])
    code, rep = run(capsys, *argv)
    assert code == 2
    assert "not valid: worst residual" in rep["error"]
    worst = float(rep["error"].split("worst residual ")[1].split()[0])
    assert worst > 0.1


def test_coend_refuses_group_algebra_of_non_pointed_category(capsys):
    code, rep = run(capsys, "coend", "--cat", "ising",
                    "--left", "groupalg", "--right", "groupalg")
    assert code == 2
    assert "sigma" in rep["error"]


def test_coend_fibonacci_annulus(capsys):
    code, rep = run(capsys, "coend", "--cat", "fib",
                    "--left", "annulus", "--right", "annulus",
                    "--samples", "6")
    assert code == 0
    assert rep["group_oracle_residual"] is None
    assert rep["norm_sandwich"]["max_ratio"] <= rep["norm_sandwich"]["max_bound"] + 1e-8


def test_analyze_chain(capsys):
    code, rep = run(capsys, "analyze", "--cat", "z2", "--aobj", "annulus")
    assert code == 0
    assert rep["discrete"] and rep["pqr"] and rep["ind"]


def test_analyze_explicit_state(capsys, tmp_path):
    p = tmp_path / "omega.json"
    p.write_text(json.dumps([[1.0, 0.0], [0.0, 0.0]]))
    code, rep = run(capsys, "analyze", "--cat", "z2", "--aobj", "annulus",
                    "--state", str(p))
    assert code == 0 and rep["gns_dims"] == {"g0": 2}
    assert rep["gns_cut_gap"] is None


def test_analyze_reads_the_state_of_a_json_annulus_on_a_partial_support(capsys, tmp_path):
    # an object read from JSON has no meta: ω was put on the loop basis of
    # every label, at position 3 of the 2-dim 𝒟(1) of the support {b2, z0},
    # and analyze raised IndexError; it is read off the object's unit
    cat = relabel_category(vec_zn(4), {"g0": "z0", "g1": "a1", "g2": "b2", "g3": "c3"})
    cat_path, ann_path = tmp_path / "z4r.json", tmp_path / "ann.json"
    cat_path.write_text(json.dumps(io.cat_to_json(cat)))
    code, _ = run(capsys, "annulus", "--cat", str(cat_path), "--support", "gen=b2,depth=1",
                  "--out", str(ann_path))
    assert code == 0
    code, rep = run(capsys, "analyze", "--cat", str(cat_path), "--aobj", str(ann_path))
    assert code == 0 and rep["ok"] and rep["state"] == [0.0, 1.0]


def test_fock_catalan_moments(capsys):
    code, rep = run(capsys, "fock", "--depth", "10", "--moments", "8")
    assert code == 0 and rep["ok"]
    assert rep["moments"] == pytest.approx([1, 0, 1, 0, 2, 0, 5, 0, 14],
                                           abs=1e-9)
    assert rep["moment_residual"] <= 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fock_fails_a_nan_moment_deviation(capsys, tmp_path):
    # η = 1e200: the Fock moment of X⁴ overflows to inf and nc_moment gives
    # nan; the residual took Python max, which dropped the NaN, and exited 0
    cov = tmp_path / "eta.json"
    cov.write_text(json.dumps({"index": [0], "entries": {"0,0": [[1e200]]}}))
    code, rep = run(capsys, "fock", "--cov", str(cov), "--depth", "4",
                    "--moments", "4")
    assert code == 2 and rep["ok"] is False
    assert np.isnan(rep["moment_residual"])
    assert [c["passed"] for c in rep["checks"]] == [False, True]


def test_fock_custom_base_and_cov(capsys, tmp_path):
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"blocks": [1, 1]}))
    cov = tmp_path / "eta.json"
    cov.write_text(json.dumps({
        "index": [0],
        "entries": {"0,0": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}}))
    code, rep = run(capsys, "fock", "--base", str(base), "--cov", str(cov),
                    "--depth", "4", "--moments", "4")
    assert code == 0 and rep["ok"]
    assert rep["trace_symmetry_residual"] < 1e-12
    assert rep["moment_residual"] <= 1e-12


def test_fock_refuses_non_trace_symmetric_covariance(capsys, tmp_path):
    # η(a) = ξ* a ξ for a random ξ ∈ M₂: CP, but not symmetric for Tr/2
    rng = np.random.default_rng(0)
    xi = rng.normal(size=(1, 2, 2)) + 1j * rng.normal(size=(1, 2, 2))
    eta = covariance_from_vectors([xi], BaseAlgebra((2,))).stacked[0, 0]
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"blocks": [2]}))
    cov = tmp_path / "eta.json"
    cov.write_text(json.dumps({
        "index": [0],
        "entries": {"0,0": [[[z.real, z.imag] for z in row] for row in eta]}}))
    code, rep = run(capsys, "fock", "--base", str(base), "--cov", str(cov),
                    "--depth", "4", "--moments", "8")
    assert code == 2 and not rep["ok"]
    assert rep["trace_symmetry_residual"] > 0.1
    assert rep["moment_residual"] <= 1e-12


def test_fock_accepts_a_rescaled_trace_symmetric_covariance(capsys, tmp_path):
    # the M₂ rotation covariance × 10⁶ is trace-symmetric; its absolute
    # residual (≈ 2e-10) only reflects the scale of η
    alg = BaseAlgebra((2,))
    th = 0.7
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    ad = np.stack([alg.coords(u @ e @ u.T) for e in alg.basis], axis=1)
    eta = 1e6 * covariance_from_automorphisms([ad], alg).stacked[0, 0]
    base = tmp_path / "base.json"
    base.write_text(json.dumps({"blocks": [2]}))
    cov = tmp_path / "eta.json"
    cov.write_text(json.dumps({
        "index": [0],
        "entries": {"0,0": [[[z.real, z.imag] for z in row] for row in eta]}}))
    code, rep = run(capsys, "fock", "--base", str(base), "--cov", str(cov),
                    "--depth", "4", "--moments", "8")
    assert rep["trace_symmetry_residual"] > 1e-12
    assert code == 0 and rep["ok"]
    assert rep["moment_residual"] <= 1e-12


def _self_adjoint_pair_files(tmp_path):
    """--base and --cov files of η_ij(a) = ξ_i·a·ξ_j for two self-adjoint
    ξ ∈ M₂: trace-symmetric, with η_01 ≠ η_10."""
    xi = [np.array([[1, 2], [2, -1]]), np.array([[0, 1j], [-1j, 2]])]
    eta = covariance_from_vectors([x[None] for x in xi], BaseAlgebra((2,)))
    base, cov = tmp_path / "base.json", tmp_path / "eta.json"
    base.write_text(json.dumps({"blocks": [2]}))
    cov.write_text(json.dumps({"index": [0, 1], "entries": {
        f"{i},{j}": [[[z.real, z.imag] for z in row] for row in eta.stacked[i, j]]
        for i in range(2) for j in range(2)}}))
    return ["--base", str(base), "--cov", str(cov)]


def test_fock_gates_a_fock_build_that_swaps_eta_ij_for_eta_ji(capsys, tmp_path,
                                                              monkeypatch):
    files = _self_adjoint_pair_files(tmp_path)
    code, rep = run(capsys, "fock", *files, "--depth", "3", "--moments", "6")
    assert code == 0 and rep["ok"] and rep["moment_residual"] <= 1e-12
    level_cuts = semicircular.level_cuts

    def swapped(eta, depth):
        # the Grams of η_ji; CovarianceMatrix would refuse it as not CP
        mutant = type("Swapped", (), {"algebra": eta.algebra, "index": eta.index,
                                      "stacked": eta.stacked.swapaxes(0, 1)})
        return level_cuts(mutant, depth)

    monkeypatch.setattr(semicircular, "level_cuts", swapped)
    code, rep = run(capsys, "fock", *files, "--depth", "3", "--moments", "6")
    assert code == 2 and not rep["ok"] and rep["moment_residual"] > 1e-9


@pytest.mark.parametrize("mutant", ["first_index_only", "reversed_words"])
def test_fock_gates_every_index_and_mixed_words(capsys, tmp_path, monkeypatch,
                                                mutant):
    # both keep E(X₀^m), all that the gate once compared: a family that
    # reads every X letter as X₀ changes X₁^m and the mixed words, and
    # moments of reversed words read η_ji for η_ij on the mixed words
    files = _self_adjoint_pair_files(tmp_path)
    if mutant == "first_index_only":
        post_init = semicircular.SemicircularFamily.__post_init__

        def first_index_only(fam):
            post_init(fam)
            fam.letters = dict.fromkeys(fam.letters, fam.fock.eta.index[0])

        monkeypatch.setattr(semicircular.SemicircularFamily, "__post_init__",
                            first_index_only)
    else:
        moment = cli.vacuum_expectation
        monkeypatch.setattr(cli, "vacuum_expectation",
                            lambda fam, word: moment(fam, word[::-1]))
    code, rep = run(capsys, "fock", *files, "--depth", "3", "--moments", "6")
    assert code == 2 and rep["moment_residual"] > 1e-9
    assert rep["moments"] == [1.0000000000000002, 0.0, 5.0, 0.0,
                              49.99999999999999, 0.0, 624.9999999999998]


def test_reports_are_deterministic(capsys, tmp_path):
    outs = []
    for k in range(2):
        p = tmp_path / f"rep{k}.json"
        code, _ = run(capsys, "coend", "--cat", "fib", "--left", "annulus",
                      "--right", "annulus", "--samples", "4",
                      "--seed", "7", "--report", str(p))
        assert code == 0
        rep = json.loads(p.read_text())
        del rep["wall_clock"]
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["seed"] == 7


# one malformed container or μ plane each: (edit of the fib annulus JSON, pointer)
_MALFORMED_AOBJ = {
    "support_not_a_list": (lambda raw, key: raw.update(support=5), "/support"),
    "mult_not_an_object": (lambda raw, key: raw.update(mult=[]), "/mult"),
    "star_not_an_object": (lambda raw, key: raw.update(star=[]), "/star"),
    "mult_plane_not_a_matrix": (lambda raw, key: raw["mult"].update({key: [5]}), "/mult/{key}/0"),
    "mult_row_not_a_list": (lambda raw, key: raw["mult"].update({key: [[5]]}), "/mult/{key}/0"),
    "mult_unknown_label": (lambda raw, key: raw["mult"].update({"nope,1;1;0": raw["mult"][key]}),
                           "/mult/nope,1;1;0"),
    "star_unknown_label": (lambda raw, key: raw["star"].update(nope=raw["star"]["1"]),
                           "/star/nope"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_AOBJ))
def test_malformed_algebra_object_exits_3_with_its_pointer(capsys, tmp_path, case):
    raw = io.aobj_to_json(build_annulus(fibonacci()))
    key = next(iter(raw["mult"]))
    edit, pointer = _MALFORMED_AOBJ[case]
    edit(raw, key)
    p = tmp_path / "aobj.json"
    p.write_text(json.dumps(raw))
    code, rep = run(capsys, "aobj-verify", "fib", str(p))
    assert code == 3
    assert rep["pointer"] == pointer.format(key=key)


def test_covariance_entries_not_an_object_exits_3(capsys, tmp_path):
    cov = tmp_path / "eta.json"
    cov.write_text(json.dumps({"index": [0], "entries": []}))
    code, rep = run(capsys, "fock", "--cov", str(cov), "--depth", "2", "--moments", "2")
    assert code == 3 and rep["pointer"] == "/entries"


@pytest.mark.parametrize("key, entry, message", [
    ("0,9", [[1]], "outside the index"),
    ("0,0", [[1, 0], [0, 1]], "entry shape (2, 2) != (1, 1)"),
])
def test_covariance_entry_faults_exit_3_with_their_pointer(capsys, tmp_path,
                                                           key, entry, message):
    cov = tmp_path / "eta.json"
    cov.write_text(json.dumps({"index": [0], "entries": {key: entry}}))
    code, rep = run(capsys, "fock", "--cov", str(cov), "--depth", "2", "--moments", "2")
    assert code == 3 and rep["pointer"] == f"/entries/{key}"
    assert message in rep["error"]


def test_bad_support_spec_exits_3(capsys):
    assert run(capsys, "annulus", "--cat", "fib",
               "--support", "gen=omega,depth=1")[0] == 3
    assert run(capsys, "annulus", "--cat", "fib",
               "--support", "depth=2")[0] == 3
    # a negative depth ran as depth 0 and exited 0
    for command in ("annulus", "coend --left fiber --right groupalg"):
        code, rep = run(capsys, *command.split(), "--cat", "z4",
                        "--support", "gen=g2,depth=-5")
        assert code == 3 and rep["pointer"] == "/support"


def test_nonpositive_tolerance_exits_3(capsys):
    assert run(capsys, "validate", "fib", "--tol", "0")[0] == 3


@pytest.mark.parametrize("argv, flag", [
    (["coend", "--cat", "z3", "--left", "fiber", "--right", "groupalg", "--samples", "0"],
     "--samples"),
    (["fock", "--depth", "-1"], "--depth"),
    (["fock", "--moments", "-2"], "--moments"),
])
def test_a_count_below_its_minimum_exits_3_naming_the_flag(capsys, argv, flag):
    # coend --samples 0 used to report ok from no sample, with an Infinity
    # that is not JSON; fock --depth -1 exited 2, --moments -2 reported ok
    code, rep = run(capsys, *argv)
    assert code == 3 and flag in rep["error"]


@pytest.mark.parametrize("depth, moments", [(0, 1), (0, 2), (1, 3), (2, 5)])
def test_more_moments_than_twice_the_depth_exits_3_naming_both_flags(capsys, depth, moments):
    # fock --depth 0 --moments 2 exited 2 with WordTooLong
    code, rep = run(capsys, "fock", "--depth", str(depth), "--moments", str(moments))
    assert code == 3 and "--moments" in rep["error"] and "--depth" in rep["error"]
    assert run(capsys, "fock", "--depth", str(depth), "--moments", str(2 * depth))[0] == 0


def test_counts_at_their_minimum_run(capsys):
    assert run(capsys, "coend", "--cat", "z3", "--left", "fiber", "--right", "groupalg",
               "--samples", "1")[0] == 0
    code, rep = run(capsys, "fock", "--depth", "0", "--moments", "0")
    assert code == 0 and rep["moments"] == [1.0]


# -- the checks that decide `ok` ---------------------------------------------

def _wrap(mp, owner, name, edit):
    """Pass every result of ``owner.name`` through ``edit(result, *args)``."""
    f = getattr(owner, name)
    mp.setattr(owner, name, lambda *a, **k: edit(f(*a, **k), *a))


def _raise_ring_axioms(raw):
    raise RingAxiomError([AxiomViolation("duality", ("x",))])


def _coherence_off(check):
    return lambda mp: _wrap(mp, SkeletalUTC, "coherence", lambda out, self, c:
                            (1.0, out[1]) if c == check else out)


_AOBJ = ["aobj-verify", "z3", "annulus"]
_COEND = ["coend", "--cat", "z3", "--left", "fiber", "--right", "groupalg",
          "--samples", "3"]

# (argv, check, a mutation that puts the value the check reads past its bound)
_MUTATIONS = [
    (["validate", "mult2"], "ring_axioms",
     lambda mp: mp.setattr(cli.io, "ring_from_json", _raise_ring_axioms)),
    *[(argv, check, _coherence_off(check))
      for argv in (["validate", "ising"], ["verify", "ising"])
      for check in ("pentagon", "hexagon")],
    *[(argv, "zigzag", lambda mp: _wrap(mp, SkeletalUTC, "verify_zigzag",
                                        lambda out, self: 1.0))
      for argv in (["validate", "ising"], ["verify", "ising"])],
    (["validate", "ising"], "unitarity",
     lambda mp: _wrap(mp, SkeletalUTC, "verify_unitarity", lambda out, self: 1.0)),
    *[(_AOBJ, key, lambda mp, key=key: _wrap(mp, cli, "validate_algebra_object",
                                             lambda res, D: {**res, key: np.nan}))
      for key in ("associativity", "unitality", "star_involution",
                  "star_monoidality", "positivity_floor")],
    *[(_COEND, f"sandwich_{side}",
       lambda mp, side=side: _wrap(mp, cli, "norm_sandwich_check", lambda rep, co, T:
                                   {**rep, f"{side}_margin": -1.0}))
      for side in ("left", "right")],
    (_COEND, "group_oracle", lambda mp: mp.setattr(cli, "_group_oracle", lambda co: 1.0)),
    (["annulus", "--cat", "fib"], "positivity_floor",
     lambda mp: _wrap(mp, cli, "z_state", lambda rep, ann: {**rep, "positivity_floor": -1.0})),
    (["fock", "--depth", "3", "--moments", "4"], "moment_residual",
     lambda mp: _wrap(mp, cli, "nc_moment", lambda m, eta, word: m + 1)),
    (["fock", "--depth", "3", "--moments", "4"], "trace_symmetric",
     lambda mp: mp.setattr(semicircular.CovarianceMatrix, "_trace_pairs",
                           lambda self: (1.0, 1.0))),
]

# checks that no input can fail yet (ROADMAP item 1)
_CONSTANT = {("analyze", name) for name in ("discrete", "pqr", "ind", "chain_ok")}


@pytest.mark.parametrize("argv, check, mutate", _MUTATIONS,
                         ids=[f"{a[0]}-{c}" for a, c, _ in _MUTATIONS])
def test_a_mutation_flips_exactly_its_check_and_ok(capsys, monkeypatch, argv, check,
                                                   mutate):
    code, rep = run(capsys, *argv)
    before = {c["name"]: c["passed"] for c in rep["checks"]}
    assert code == 0 and rep["ok"] is True and all(before.values())
    mutate(monkeypatch)
    code, rep = run(capsys, *argv)
    after = {c["name"]: c["passed"] for c in rep["checks"]}
    assert after.keys() == before.keys()
    assert [k for k in after if after[k] != before[k]] == [check]
    assert code == 2 and rep["ok"] is False


def test_every_check_has_a_mutation_or_is_listed_as_constant(capsys):
    argvs = {tuple(a) for a, _, _ in _MUTATIONS} | {("analyze", "--cat", "z2",
                                                   "--aobj", "annulus")}
    seen = set()
    for argv in argvs:
        code, rep = run(capsys, *argv)
        assert code == 0 and rep["ok"] is True and rep["checks"]
        assert rep["ok"] == all(c["passed"] for c in rep["checks"])
        seen |= {(argv[0], c["name"]) for c in rep["checks"]}
    assert seen == {(a[0], c) for a, c, _ in _MUTATIONS} | _CONSTANT


def test_a_check_fails_on_nan_and_skips_none():
    assert cli._check(0.5, r=0.25, skip=None) == [
        {"name": "r", "value": 0.25, "bound": 0.5, "margin": 0.25, "passed": True}]
    assert cli._check(-1.0, least=True, floor=-2.0)[0]["passed"] is False
    assert [c["passed"] for c in cli._check(1.0, a=np.nan)
            + cli._check(1.0, least=True, b=np.nan)] == [False, False]
