"""Scan the Pimsner–Popa ratio ‖T‖/‖E(T)‖ across the fixture registry and labels.

The sandwich bound is d_X²; the interesting question at desk scale is how
much of the bound random positive elements actually use.  Every row also
gives the seconds one ``build_annulus`` of its fixture took, validation
included.  ``pp_check`` raises on a violation, so a scan that finishes has
found none.  Run:

    python3 scripts/pp_index_scan.py --samples 500 --seed 1
"""

import one_blas_thread  # noqa: F401  (before numpy)

import argparse
import time

from utcat.algebra_object import pp_check
from utcat.annulus import build_annulus
from utcat.fixtures import FIXTURE_BUILDERS


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    print(f"{'fixture':<8} {'build s':>8} {'X':<6} {'d_X^2':>10} {'max ratio':>10} {'used':>6}")
    for name, builder in FIXTURE_BUILDERS.items():
        cat = builder()
        t0 = time.perf_counter()
        ann = build_annulus(cat)
        build_s = time.perf_counter() - t0
        for X in cat.ring.labels:
            rep = pp_check(ann, X, args.samples, seed=args.seed)
            used = rep["max_ratio"] / rep["bound"]
            print(f"{name:<8} {build_s:>8.4f} {X:<6} {rep['bound']:>10.6f} "
                  f"{rep['max_ratio']:>10.6f} {used:>6.1%}")


if __name__ == "__main__":
    main()
