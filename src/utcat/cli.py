"""`utcat` command line: ingest JSON data, run the pipelines, emit reports.

Exit codes: 0 all assertions pass, 2 axiom/assertion failure, 3 input error.
Reports are deterministic for a fixed config and seed (modulo the wall-clock
field) and always embed the seed and tolerance actually used.

Bundled fixtures resolve by name wherever a path is expected: the names of
`fixtures.FIXTURE_BUILDERS` (`fib`, `ising`, `vec_z1` … `vec_z6`, `su2_2` …
`su2_5`, aliases `fibonacci` and `z1` … `z6`), and the multiplicity-2 ring
`mult2`.
Algebra-object slots additionally accept `groupalg`, `fiber` (the trivial
action on ℂ), and `annulus`, built over the category in play.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np

from . import io_schemas as io
from .algebra_object import (
    group_algebra_object,
    opposite_object,
    trivial_action_object,
    validate_algebra_object,
    worst_residual,
)
from .annulus import build_annulus, z_state
from .coend import (
    CoendAlgebra,
    GradedElement,
    faithfulness_probe,
    norm_sandwich_check,
)
from .errors import (
    CounterexampleFound,
    RingAxiomError,
    SchemaError,
    UtcatError,
)
from .fixtures import FIXTURE_BUILDERS, mult2_ring
from .inclusion import discreteness_report
from .semicircular import (
    BaseAlgebra,
    CovarianceMatrix,
    build_fock,
    nc_moment,
    semicircular_ops,
    vacuum_expectation,
)

EXIT_OK, EXIT_ASSERT, EXIT_INPUT = 0, 2, 3

# the least value of each count flag; a smaller one is an input error
_MINIMUM = {"samples": 1, "depth": 0, "moments": 0}

# CLI aliases of registry names: `fibonacci` and `z<n>` for `vec_z<n>`
_ALIASES = {"fibonacci": "fib",
            **{name[4:]: name for name in FIXTURE_BUILDERS
               if name.startswith("vec_z")}}
_BUNDLED_CATS = {**FIXTURE_BUILDERS,
                 **{a: FIXTURE_BUILDERS[name] for a, name in _ALIASES.items()}}


def _bundled_raw(name: str):
    if name in _BUNDLED_CATS:
        return io.cat_to_json(_BUNDLED_CATS[name]())
    if name == "mult2":
        return io.ring_to_json(mult2_ring())
    return None


def _load_raw(path: str) -> dict:
    """JSON from a file path, or a bundled fixture by (basename) name."""
    if not os.path.exists(path):
        name = os.path.basename(path)
        name = name[:-5] if name.endswith(".json") else name
        raw = _bundled_raw(name)
        if raw is not None:
            return raw
        raise SchemaError(f"no such file or bundled fixture: {path}", "/")
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}", "/")
    if not isinstance(raw, (dict, list)):
        raise SchemaError("top level must be an object or array", "/")
    return raw


def _load_cat(path: str):
    return io.cat_from_json(_load_raw(path))


def _load_aobj(cat, path: str, args=None):
    """A bundled algebra object by name, or one read from JSON.

    With ``args``, an object read from JSON must pass
    `validate_algebra_object` at ``args.tol`` (seeded by ``args.seed``);
    otherwise `CounterexampleFound` names its worst residual.
    """
    name = os.path.basename(path)
    name = name[:-5] if name.endswith(".json") else name
    if not os.path.exists(path):
        if name in ("groupalg", "group_algebra"):
            return group_algebra_object(cat)
        if name in ("fiber", "trivial"):
            return trivial_action_object(cat)
        if name == "annulus":
            return build_annulus(cat)
    D = io.aobj_from_json(cat, _load_raw(path))
    if args is not None:
        res = validate_algebra_object(D, rng=np.random.default_rng(args.seed),
                                      tol=args.tol)
        key, worst = worst_residual(res)
        if not worst <= args.tol:
            raise CounterexampleFound(
                f"algebra object {path} is not valid: worst residual "
                f"{worst:.3e} ({key}) exceeds tol {args.tol:g}")
    return D


def _parse_support(cat, spec: str | None):
    """'gen=<x+y+...>,depth=<n>' → the sorted fusion closure of the
    generators to that depth, or None for all labels."""
    if spec is None:
        return None
    gens, depth = [], 1
    for token in spec.split(","):
        if token.startswith("gen="):
            gens.extend(g for g in token[4:].split("+") if g)
        elif token.startswith("depth="):
            try:
                depth = int(token[6:])
            except ValueError:
                raise SchemaError(f"bad depth in support spec {spec!r}", "/support")
        elif token:
            raise SchemaError(f"bad support token {token!r}", "/support")
    if not gens:
        raise SchemaError(f"support spec {spec!r} names no generators", "/support")
    for g in gens:
        if g not in cat.ring.labels:
            raise SchemaError(f"unknown generator {g!r}", "/support")
    return cat.ring.fusion_closure(gens, depth)


def _jsonify(obj):
    """Reports into plain JSON: numpy scalars, complex, tuples, arrays."""
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        return z.real if z.imag == 0 else [z.real, z.imag]
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit(report: dict, args, started: float) -> None:
    report = _jsonify(report)
    report["seed"] = args.seed
    report["tolerance"] = args.tol
    report["wall_clock"] = time.time() - started
    text = json.dumps(report, indent=2)
    print(text)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")


# -- command handlers -------------------------------------------------------

def _cmd_validate(args) -> tuple:
    raw = _load_raw(args.input)
    try:
        if isinstance(raw, dict) and "F" in raw:
            cat = io.cat_from_json(raw)
            residuals, worst = _coherence(cat)
            residuals.update(zigzag=cat.verify_zigzag(),
                             unitarity=cat.verify_unitarity())
        else:
            io.ring_from_json(raw)
            residuals, worst = {}, None
    except RingAxiomError as exc:
        return EXIT_ASSERT, {"command": "validate", "input": args.input,
                             "ok": False,
                             "violations": [v.as_dict() for v in exc.violations]}
    bad = [k for k, r in residuals.items() if r is not None and not r <= args.tol]
    report = {"command": "validate", "input": args.input, "ok": not bad,
              "violations": [], "residuals": residuals}
    if worst is not None:
        report["worst"] = worst
    return (EXIT_ASSERT if bad else EXIT_OK), report


def _coherence(cat) -> tuple:
    """Pentagon and hexagon residuals, and the labels where each is largest:
    [a, b, c, d, e] for the pentagon, [a, b, c, d] for the hexagon (None
    without a braiding)."""
    p, where_p = cat.coherence("pentagon")
    h, where_h = cat.coherence("hexagon") if cat.braided else (None, None)
    return ({"pentagon": p, "hexagon": h},
            {"pentagon": list(where_p),
             "hexagon": None if where_h is None else list(where_h)})


def _cmd_verify(args) -> tuple:
    cat = _load_cat(args.input)
    residuals, worst = _coherence(cat)
    residuals["zigzag"] = cat.verify_zigzag()
    bad = [k for k, r in residuals.items() if r is not None and not r <= args.tol]
    report = {"command": "verify", "input": args.input, **residuals,
              "ok": not bad, "worst": worst}
    return (EXIT_ASSERT if bad else EXIT_OK), report


def _cmd_aobj_verify(args) -> tuple:
    cat = _load_cat(args.cat)
    D = _load_aobj(cat, args.aobj)
    rng = np.random.default_rng(args.seed)
    res = validate_algebra_object(D, rng=rng, tol=args.tol)
    ok = worst_residual(res)[1] <= args.tol
    return (EXIT_OK if ok else EXIT_ASSERT), {
        "command": "aobj-verify", "cat": args.cat, "aobj": args.aobj,
        "residuals": res, "ok": ok}


def _group_oracle(co: CoendAlgebra):
    """Structure constants vs. the group table on pointed, line-fibered data.

    With one line per grade, column h of the acting matrix of e_g holds
    e_g·e_h, which the group table says is e_{gh}.  Returns the worst
    coefficient deviation, or None when inapplicable.
    """
    ring = co.cat.ring
    pointed = all(sum(ring.fuse(x, y).values()) == 1
                  for x in ring.labels for y in ring.labels)
    if not pointed or any(co.dims[X] != 1 for X in co.support):
        return None
    if set(co.support) != set(ring.labels):
        return None
    at = {X: i for i, X in enumerate(co.support)}
    table = np.zeros((len(at),) * 3)
    for g, h in itertools.product(co.support, repeat=2):
        table[at[g], at[next(iter(ring.fuse(g, h)))], at[h]] = 1.0
    ops = [co.act_matrix(GradedElement({g: np.ones(1)})) for g in co.support]
    return float(np.max(np.abs(np.array(ops) - table)))


def _cmd_coend(args) -> tuple:
    cat = _load_cat(args.cat)
    A = _load_aobj(cat, args.left, args)
    if A.side == "cat":
        A = opposite_object(A)
    B = _load_aobj(cat, args.right, args)
    S = _parse_support(cat, args.support)
    co = CoendAlgebra(A, B, S=S)
    rng = np.random.default_rng(args.seed)

    sandwich = {"samples": 0, "violations": 0, "max_ratio": 0.0,
                "max_bound": 0.0}
    for k in range(args.samples):
        X = co.support[k % len(co.support)]
        T = GradedElement({X: rng.normal(size=co.dims[X])
                           + 1j * rng.normal(size=co.dims[X])})
        rep = norm_sandwich_check(co, T)
        sandwich["samples"] += 1
        if not (rep["left_ok"] and rep["right_ok"]):
            sandwich["violations"] += 1
        if rep["vacuum_norm"] > 0:
            sandwich["max_ratio"] = max(
                sandwich["max_ratio"], rep["op_norm"] / rep["vacuum_norm"])
        sandwich["max_bound"] = max(sandwich["max_bound"], rep["bound"])

    probe = faithfulness_probe(co, trials=args.samples, seed=args.seed)
    oracle = _group_oracle(co)
    ok = sandwich["violations"] == 0 and probe["failures"] == 0 \
        and (oracle is None or oracle < 1e-12)
    report = {"command": "coend", "cat": args.cat, "left": args.left,
              "right": args.right, "support": list(co.support),
              "dims": dict(co.dims),
              "norm_sandwich": sandwich,
              "faithfulness": probe,
              "group_oracle_residual": oracle,
              "ok": ok}
    return (EXIT_OK if ok else EXIT_ASSERT), report


def _cmd_analyze(args) -> tuple:
    cat = _load_cat(args.cat)
    D = _load_aobj(cat, args.aobj, args)
    n1 = D.n(cat.ring.unit)
    if args.state:
        omega = io.state_from_json(_load_raw(args.state), n1)
    elif n1 == 1:
        omega = np.array([1.0 + 0.0j])
    else:
        omega = np.asarray(z_state(D)["omega"], dtype=complex)
    report = {"command": "analyze", "cat": args.cat, "aobj": args.aobj,
              "state": list(map(complex, omega)),
              **discreteness_report(D, omega), "ok": True}
    return EXIT_OK, report


def _cmd_annulus(args) -> tuple:
    cat = _load_cat(args.cat)
    S = _parse_support(cat, args.support)
    ann = build_annulus(cat, S, tol=args.tol)
    zrep = z_state(ann)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(io.aobj_to_json(ann), fh, indent=2)
            fh.write("\n")
    ok = zrep["positivity_floor"] >= -args.tol
    report = {"command": "annulus", "cat": args.cat,
              "support": list(ann.meta["support"]),
              "fibers": {X: n for X, n in ann.fibers.items() if n},
              "unit_fiber_dim": ann.n(cat.ring.unit),
              "z_state": {"omega": list(map(complex, zrep["omega"])),
                          "positivity_floor": zrep["positivity_floor"]},
              "out": args.out, "ok": ok}
    return (EXIT_OK if ok else EXIT_ASSERT), report


def _cmd_fock(args) -> tuple:
    if args.base:
        alg = io.base_from_json(_load_raw(args.base))
    else:
        alg = BaseAlgebra((1,))
    if args.cov:
        eta = io.eta_from_json(_load_raw(args.cov), alg)
    else:
        eta = CovarianceMatrix(alg, (0,), np.eye(alg.dim)[None, None])
    fam = semicircular_ops(build_fock(eta, args.depth))
    # X_i^m for every index i, then one seeded word X·a·X·a′··· per length
    rng, ms = np.random.default_rng(args.seed), range(args.moments + 1)
    words = [[("X", i)] * m for i in eta.index for m in ms]
    words += [[w for x in rng.integers(len(eta.index), size=m)
               for w in (("X", eta.index[x]), alg.random(rng))] for m in ms[1:]]
    moments, residual = [], 0.0
    for t, word in enumerate(words):
        got, want = vacuum_expectation(fam, word), nc_moment(eta, word)
        if t <= args.moments:  # X_{i₀}^m, the moments printed
            moments.append(float(alg.trace(got).real))
        residual = max(residual, float(np.max(np.abs(got - want)))
                       / max(1.0, float(np.max(np.abs(want)))))
    sym = eta.trace_symmetry_residual()
    ok = residual <= args.tol and eta.is_trace_symmetric()
    report = {"command": "fock", "base": list(alg.blocks),
              "index": list(eta.index), "depth": args.depth,
              "level_dims": list(fam.fock.level_dims),
              "level_cut_gaps": list(fam.fock.cut_gaps),
              "moments": moments,
              "moment_residual": residual,
              "trace_symmetry_residual": sym,
              "ok": ok}
    return (EXIT_OK if ok else EXIT_ASSERT), report


# -- argument parsing --------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9,
                        help="residual tolerance (default 1e-9)")
    common.add_argument("--seed", type=int, default=0,
                        help="rng seed recorded in the report")
    common.add_argument("--report", default=None,
                        help="also write the JSON report to this path")

    p = argparse.ArgumentParser(prog="utcat", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", parents=[common],
                        help="fusion-ring axioms (plus F-data residuals if present)")
    sp.add_argument("input")
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("verify", parents=[common],
                        help="pentagon / hexagon / zigzag residuals")
    sp.add_argument("input")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("aobj-verify", parents=[common],
                        help="algebra-object invariant residuals")
    sp.add_argument("cat")
    sp.add_argument("aobj")
    sp.set_defaults(func=_cmd_aobj_verify)

    sp = sub.add_parser("coend", parents=[common],
                        help="realize A ⋈ B: sandwich + faithfulness report")
    sp.add_argument("--cat", required=True)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--support", default=None,
                    help="gen=<x+y>,depth=<n> (default: all labels)")
    sp.add_argument("--samples", type=int, default=25)
    sp.set_defaults(func=_cmd_coend)

    sp = sub.add_parser("analyze", parents=[common],
                        help="discreteness / pqr / ind chain for (D, ω)")
    sp.add_argument("--cat", required=True)
    sp.add_argument("--aobj", required=True)
    sp.add_argument("--state", default=None,
                    help="JSON coefficient vector over the unit fiber "
                         "(default: canonical state)")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("annulus", parents=[common],
                        help="assemble the annular algebra object")
    sp.add_argument("--cat", required=True)
    sp.add_argument("--support", default=None)
    sp.add_argument("--out", default=None,
                    help="write the algebra object as JSON")
    sp.set_defaults(func=_cmd_annulus)

    sp = sub.add_parser("fock", parents=[common],
                        help="A-valued semicircular moments at finite depth")
    sp.add_argument("--base", default=None, help="base algebra JSON (default ℂ)")
    sp.add_argument("--cov", default=None, help="covariance η JSON (default η=1)")
    sp.add_argument("--depth", type=int, default=10)
    sp.add_argument("--moments", type=int, default=8)
    sp.set_defaults(func=_cmd_fock)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.tol <= 0:
        print(json.dumps({"error": "tolerance must be positive"}))
        return EXIT_INPUT
    for flag, least in _MINIMUM.items():
        if getattr(args, flag, least) < least:
            print(json.dumps({"error": f"--{flag} must be at least {least}"}))
            return EXIT_INPUT
    # the truncated Fock space serves words of at most 2·depth letters
    if args.command == "fock" and args.moments > 2 * args.depth:
        print(json.dumps({"error": f"--moments {args.moments} exceeds 2·--depth "
                                   f"= {2 * args.depth}"}))
        return EXIT_INPUT
    started = time.time()
    try:
        code, report = args.func(args)
    except SchemaError as exc:
        print(json.dumps({"error": str(exc), "pointer": exc.pointer}))
        return EXIT_INPUT
    except RingAxiomError as exc:
        print(json.dumps({"error": "ring axioms violated",
                          "violations": [v.as_dict() for v in exc.violations]},
                         indent=2))
        return EXIT_ASSERT
    except CounterexampleFound as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_ASSERT
    except (OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}))
        return EXIT_INPUT
    except UtcatError as exc:
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}"}))
        return EXIT_ASSERT
    _emit(report, args, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
