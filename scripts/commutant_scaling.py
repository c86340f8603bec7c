"""Time `commutant_blocks` as the correspondence grows.

The solver factors only n×n matrices and one D²×D² certificate form, D the
number of eigenvalue clusters (D = k²·labels at base dimension k), so its
cost should follow g·n³ + D⁶ for g generators.  The scan realizes planted
Hilbert space objects in a Haar-random basis: four labels at base dimension
1 with total dimension n = 8, 16, … up to ``--max-n``, then base dimensions
2 and 3.  Every recovered block structure must equal the planted one; a
wrong block or a refusal makes the exit code 1.
Seconds are wall clock of one call, the input build excluded.  Run:

    PYTHONPATH=src python3 scripts/commutant_scaling.py --max-n 128
"""

import one_blas_thread  # noqa: F401  (before numpy)

import argparse
import sys
import time

import numpy as np

from utcat.errors import NotSemisimpleInput
from utcat.inclusion import HilbertSpaceObject, commutant_blocks, realize


def cases(max_n: int) -> list:
    """(base dimension, planted dims) pairs, base dimension 1 first."""
    out = []
    n = 8
    while n <= max_n:
        out.append((1, {"a": n // 4, "b": n // 4, "c": n // 4,
                        "d": n - 3 * (n // 4)}))
        n *= 2
    out += [(2, {"a": 2, "b": 1, "c": 3}), (2, {"a": 4, "b": 4}),
            (3, {"a": 2, "b": 1}), (3, {"a": 1, "b": 2, "c": 1})]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'k':>2} {'n':>5} {'labels':>6} {'s':>8} {'blocks ok':>9}")
    failed = []
    for k, dims in cases(args.max_n):
        planted = HilbertSpaceObject(dims)
        corr = realize(planted, k, np.random.default_rng(args.seed))
        t0 = time.perf_counter()
        try:
            got = commutant_blocks(corr).dims()
        except NotSemisimpleInput as exc:
            got = f"refused: {exc}"
        seconds = time.perf_counter() - t0
        ok = got == planted.dims
        print(f"{k:>2} {corr.total_dim:>5} {len(dims):>6} {seconds:>8.4f}"
              f" {str(ok):>9}")
        if not ok:
            failed.append(f"k={k} planted {planted.dims}: {got}")
    for line in failed:
        print(f"wrong blocks: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
