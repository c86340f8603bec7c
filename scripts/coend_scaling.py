"""Time the coend checks of annular coends as the module grows.

For the coend |𝔸×𝔹| of the annulus 𝔸 of each category with its opposite
(`fib`, `vec_z3` … `vec_z6`, `su2_3` … `su2_<k>`), the script prints the
module dimension n and the wall clock of each stage, as `utcat coend` and
the benchmark run them:

- annulus: `build_annulus` of the category (product, star and their
  validation);
- build: the action tensor M (all products, stars and expectations) and its
  GNS conjugate Q = G^{1/2}·M·G^{-1/2} (all operator norms), G factored;
- gram: the module Gram G;
- sandwich: 6 `norm_sandwich_check` samples, grades in turn;
- probe: `faithfulness_probe` with 6 trials;

and two tracemalloc peaks (MB): of a second, traced `build_annulus` of a
fresh copy of the category (ann MB), and from the coend's construction to
the end of the probe (peak MB).  The annulus seconds are untraced; the
coend stages run traced.  A sandwich violation, or a probe whose cyclic
rank is below n, makes the exit code 1.  The probe bound's known defect
(`CounterexampleFound`, "vacuum Gram floor … below sandwich bound …", seen
on the `ising` and `su2_2` coends) is printed, not gated.  Seconds are wall
clock of one run; the first row also pays the first calls' imports.  Run:

    PYTHONPATH=src python3 scripts/coend_scaling.py --max-k 6
"""

import one_blas_thread  # noqa: F401  (before numpy)

import argparse
import sys
import time
import tracemalloc

import numpy as np

from utcat.algebra_object import opposite_object
from utcat.annulus import build_annulus
from utcat.coend import (
    CoendAlgebra,
    GradedElement,
    faithfulness_probe,
    norm_sandwich_check,
)
from utcat.errors import CounterexampleFound
from utcat.fixtures import fibonacci, su2k, vec_zn

SAMPLES = 6   # sandwich samples and probe trials, as in the benchmark


def builders(max_k: int) -> dict:
    return {"fib": fibonacci,
            **{f"vec_z{n}": (lambda n=n: vec_zn(n)) for n in range(3, 7)},
            **{f"su2_{k}": (lambda k=k: su2k(k)) for k in range(3, max_k + 1)}}


def run(ann, seed: int) -> tuple:
    """(n, stage seconds, peak MB, list of faults, probe note)."""
    tracemalloc.start()
    co = CoendAlgebra(opposite_object(ann), ann)
    seconds, faults, note = {}, [], ""
    t0 = time.perf_counter()
    co._action
    t1 = time.perf_counter()
    co.gram()
    t2 = time.perf_counter()
    co._conj
    t3 = time.perf_counter()
    seconds["build"], seconds["gram"] = (t1 - t0) + (t3 - t2), t2 - t1
    rng = np.random.default_rng(seed)
    t0 = time.perf_counter()
    for k in range(SAMPLES):
        X = co.support[k % len(co.support)]
        T = GradedElement({X: rng.normal(size=co.dims[X])
                           + 1j * rng.normal(size=co.dims[X])})
        rep = norm_sandwich_check(co, T)
        if not (rep["left_ok"] and rep["right_ok"]):
            faults.append(f"sandwich violated at grade {X}: {rep}")
    seconds["sandwich"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    try:
        probe = faithfulness_probe(co, SAMPLES, seed=seed)
        if probe["cyclic_rank"] < co.total_dim:
            faults.append(f"probe rank {probe['cyclic_rank']} < {co.total_dim}")
        note = f"margin {probe['bound_margin']:.3e}"
    except CounterexampleFound as exc:
        note = f"known probe defect: {exc}"
    seconds["probe"] = time.perf_counter() - t0
    peak = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    return co.total_dim, seconds, peak, faults, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-k", type=int, default=6,
                    help="largest SU(2)_k level scanned")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'input':>7} {'n':>4} {'annulus':>8} {'ann MB':>7} {'build':>8} {'gram':>8}"
          f" {'sandwich':>8} {'probe':>8} {'peak MB':>8}  probe")
    failed = []
    for name, build in builders(args.max_k).items():
        cat = build()
        t0 = time.perf_counter()
        ann = build_annulus(cat)
        seconds = time.perf_counter() - t0
        cat = build()
        tracemalloc.start()
        build_annulus(cat)
        ann_peak = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        n, s, peak, faults, note = run(ann, args.seed)
        print(f"{name:>7} {n:>4} {seconds:>8.4f} {ann_peak:>7.2f} {s['build']:>8.4f}"
              f" {s['gram']:>8.4f} {s['sandwich']:>8.4f} {s['probe']:>8.4f} {peak:>8.2f}  {note}")
        failed += [f"{name}: {f}" for f in faults]
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
