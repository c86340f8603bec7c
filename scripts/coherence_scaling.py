"""Time the JSON parse and the pentagon and hexagon checks as the category grows.

Each check moves every basis tree at once through one entry table per
category, so its cost should follow the number of trees.  The scan runs
``vec_z{n}`` for n = 2 … ``--max-n`` and ``su2_{k}`` for k = 2 … 8 (valid
data: every residual must be at most 1e-9, else the exit code is 1) and the
multiplicity-two ring x⊗x = 1 ⊕ 2x with seeded random blocks (not a
category: timed only).  ``parse s`` is ``cat_from_json(cat_to_json(cat))``;
on every category each F and R block must come back bit for bit, else the
exit code is 1.
Seconds are wall clock of one fresh call, the entry table included.  Run:

    PYTHONPATH=src python3 scripts/coherence_scaling.py --max-n 12
"""

import one_blas_thread  # noqa: F401  (before numpy)

import argparse
import sys
import time

import numpy as np

from utcat.fixtures import mult2_ring, random_blocks, su2k, vec_zn
from utcat.io_schemas import cat_from_json, cat_to_json

TOL = 1e-9


def trees(cat, length: int) -> int:
    """Basis trees on ``length`` letters: Σ dim Hom(e, x₁⊗…⊗x_n)."""
    ring = cat.ring
    fuse_any = ring._N.sum(axis=1)  # [x, z] = Σ_y N(x, y, z)
    ones = np.ones(len(ring.labels))
    return int(ones @ np.linalg.matrix_power(fuse_any, length - 1) @ ones)


def timed(cat, check: str) -> tuple:
    t0 = time.perf_counter()
    residual = getattr(cat, f"verify_{check}")()
    return residual, time.perf_counter() - t0


def parsed(cat) -> tuple:
    """Seconds of one JSON parse of ``cat`` and whether every block came back
    bit for bit."""
    payload = cat_to_json(cat)
    t0 = time.perf_counter()
    again = cat_from_json(payload)
    seconds = time.perf_counter() - t0
    return seconds, _bytes(again) == _bytes(cat)


def _bytes(cat) -> list:
    """The F and R buffers of ``cat`` as raw bytes."""
    return [None if buf is None else buf.tobytes() for buf in (cat._F, cat._R)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    cases = [(f"vec_z{n}", (lambda n=n: vec_zn(n)), True)
             for n in range(2, args.max_n + 1)]
    cases += [(f"su2_{k}", (lambda k=k: su2k(k)), True) for k in range(2, 9)]
    cases.append((f"mult2 seed {args.seed}",
                  lambda: random_blocks(mult2_ring(), args.seed), False))
    print(f"{'category':<14} {'parse s':>8} {'pentagon trees':>14} {'s':>8} {'residual':>10}"
          f" {'hexagon trees':>14} {'s':>8} {'residual':>10}")
    failed = []
    for name, build, valid in cases:
        seconds, same = parsed(build())
        row = [name, f"{seconds:>8.4f}"]
        if not same:
            failed.append(f"{name} blocks changed in the JSON round trip")
        for check, length in (("pentagon", 4), ("hexagon", 3)):
            cat = build()
            residual, seconds = timed(cat, check)
            row += [f"{trees(cat, length):>14d}", f"{seconds:>8.4f}",
                    f"{residual:>10.2e}"]
            if valid and not residual <= TOL:
                failed.append(f"{name} {check} residual {residual:.3e} above {TOL:g}")
        print(f"{row[0]:<14} " + " ".join(row[1:]))
    for line in failed:
        print(f"failed: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
