"""How tight is the coend norm sandwich ‖TΩ‖ ≤ ‖T‖ ≤ d²‖TΩ‖ per grade?

Samples homogeneous elements of the annular coend over each bundled braided
fixture and records the extreme ratios grade by grade, plus the vacuum Gram
spectrum (its floor is the faithfulness margin).  A sample that violates
either side of the sandwich makes the exit code 1.  Run:

    python3 scripts/coend_sandwich_experiment.py --samples 200 --json out.json
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass

import numpy as np

from utcat.algebra_object import opposite_object
from utcat.annulus import build_annulus
from utcat.coend import CoendAlgebra, GradedElement, norm_sandwich_check
from utcat.fixtures import fibonacci, ising, vec_zn


@dataclass
class ExperimentConfig:
    samples: int = 100
    seed: int = 0
    fixtures: tuple = ("fib", "ising", "vec_z2", "vec_z3")


BUILDERS = {"fib": fibonacci, "ising": ising,
            "vec_z2": lambda: vec_zn(2), "vec_z3": lambda: vec_zn(3)}


def grade_extremes(co, X, samples, rng):
    """(least ratio, largest ratio, d², number of violated samples)."""
    lo, hi, violations = np.inf, 0.0, 0
    for _ in range(samples):
        T = GradedElement({X: rng.normal(size=co.dims[X])
                           + 1j * rng.normal(size=co.dims[X])})
        rep = norm_sandwich_check(co, T)
        violations += not (rep["left_ok"] and rep["right_ok"])
        if rep["vacuum_norm"] > 0:
            r = rep["op_norm"] / rep["vacuum_norm"]
            lo, hi = min(lo, r), max(hi, r)
    return lo, hi, co.cat.d(X) ** 2, violations


def run(cfg: ExperimentConfig):
    out = {"config": asdict(cfg), "fixtures": {}, "violations": 0}
    for name in cfg.fixtures:
        ann = build_annulus(BUILDERS[name]())
        co = CoendAlgebra(opposite_object(ann), ann)
        rng = np.random.default_rng(cfg.seed)
        rows = {}
        for X in co.support:
            lo, hi, bound, bad = grade_extremes(co, X, cfg.samples, rng)
            rows[X] = {"min_ratio": lo, "max_ratio": hi, "bound": bound,
                       "violations": bad}
            out["violations"] += bad
            print(f"{name:<8} grade {X:<6} ratio ∈ [{lo:.4f}, {hi:.4f}] "
                  f"≤ d² = {bound:.4f}" + (f"  {bad} VIOLATED" if bad else ""))
        spec = np.sort(np.linalg.eigvalsh(co.gram()))
        rows["_gram_floor"] = float(spec[0])
        print(f"{name:<8} vacuum Gram floor {spec[0]:.4e}")
        out["fixtures"][name] = rows
    return out


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", default=None, help="dump results to this path")
    args = ap.parse_args()
    result = run(ExperimentConfig(samples=args.samples, seed=args.seed))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result, fh, indent=2)
    sys.exit(1 if result["violations"] else 0)
