"""Convergence of truncated semicircular moments as the Fock depth grows.

With η = 1 the 2m-th vacuum moment is the m-th Catalan number once the
depth reaches m; the scan makes the exactness threshold visible and also
tracks a 2×2 automorphism-induced covariance for comparison.  A printed
moment more than 1e-9 (relative) away from `nc_moment`, the value η
alone determines by the non-crossing recursion, makes the exit code 1: for
η = 1 that is C_m, for the M₂ rotation the trace of E(X⁴) is 8.  Run:

    python3 scripts/fock_depth_convergence.py --max-depth 8
"""

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from utcat.semicircular import (
    BaseAlgebra,
    build_fock,
    catalan,
    covariance_from_automorphisms,
    covariance_from_vectors,
    nc_moment,
    semicircular_ops,
    vacuum_expectation,
)


# relative deviation from the non-crossing recursion that fails the run
TOL = 1e-9


@dataclass
class DepthScanConfig:
    max_depth: int = 8
    moment: int = 8          # even moment 2m with 2m = moment


def _deviation(val, want) -> float:
    return abs(val - want) / max(1.0, abs(want))


def scalar_scan(cfg: DepthScanConfig) -> int:
    """Prints the scan; returns the number of moments off the recursion."""
    m = cfg.moment // 2
    eta = covariance_from_vectors([np.array([1.0])])
    target = nc_moment(eta, [("X", 0)] * cfg.moment)[0, 0].real
    print(f"η = 1, moment E(X^{cfg.moment}), exact value C_{m} = {catalan(m)}")
    bad = 0
    for depth in range(1, cfg.max_depth + 1):
        fam = semicircular_ops(build_fock(eta, depth))
        if 2 * depth < cfg.moment:
            print(f"  depth {depth:>2}: word too long for exactness, skipped")
            continue
        val = vacuum_expectation(fam, [("X", 0)] * cfg.moment)[0, 0].real
        err = _deviation(val, target)
        bad += err > TOL
        print(f"  depth {depth:>2}: {val:.12f}  (err {abs(val - target):.1e})"
              + ("  FAILED" if err > TOL else ""))
    return bad


def automorphism_scan(cfg: DepthScanConfig) -> int:
    """Prints the scan; returns the number of moments off the recursion."""
    alg = BaseAlgebra((2,))
    th = 0.5
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]],
                 dtype=complex)
    ad = np.zeros((4, 4), dtype=complex)
    for c, e in enumerate(alg.basis):
        ad[:, c] = alg.coords(u @ e @ u.conj().T)
    eta = covariance_from_automorphisms([ad], alg)
    target = alg.trace(nc_moment(eta, [("X", 0)] * 4)).real
    print(f"\nη = Ad(u) + Ad(u)⁻¹ on M₂, trace of E(X^4), exact value {target:g}:")
    bad = 0
    # 2×2 base with one index: raw level dims grow 16-fold per level, so the
    # default dimension cap is reached just past depth 4
    for depth in range(2, min(cfg.max_depth, 4) + 1):
        fam = semicircular_ops(build_fock(eta, depth))
        val = alg.trace(vacuum_expectation(fam, [("X", 0)] * 4)).real
        err = _deviation(val, target)
        bad += err > TOL
        print(f"  depth {depth:>2}: {val:.12f}  "
              f"(level dims {fam.fock.level_dims})"
              + ("  FAILED" if err > TOL else ""))
    return bad


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--max-depth", type=int, default=8)
    ap.add_argument("--moment", type=int, default=8)
    args = ap.parse_args()
    cfg = DepthScanConfig(max_depth=args.max_depth, moment=args.moment)
    sys.exit(1 if scalar_scan(cfg) + automorphism_scan(cfg) else 0)
