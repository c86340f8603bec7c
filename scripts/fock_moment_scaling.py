"""Time the Fock build and the vacuum moment sweep as the depth grows.

At depth n every X-word of length ≤ 2n has an exact vacuum moment, the
sum over its non-crossing pairings of the covariance η(1) per pair.  For
each depth the scan builds two families, a 2-index one over A = ℂ from two
orthonormal vectors of a seeded Haar unitary, and η = Ad(u) + Ad(u)⁻¹ on
M₂ (η(1) = 2·1).  Words X^k·a·X^k and a·X^k·b·X^k·c, k ≤ n, with seeded
a, b, c ∈ A (not scalars on M₂) put an A letter on every level and on
both halves of the moment's split after the k-th X letter (a on the bra,
b and c on the ket); their moments are checked against the A-valued
non-crossing recursion, e.g. E(X·a·X) = η(a) and
E(X²·a·X²) = η(1)·a·η(1) + η(η(a)).  It prints the seconds of
`build_fock`, the raw and the quotient dimension of every level, and the
seconds of `vacuum_expectation` over the X-words and over the A-letter
words.  A depth whose raw dimensions exceed the `build_fock` cap is
reported as such (M₂ from depth 5 on).  A deviation above 1e-9 (relative
to max(1, |moment|)) makes the exit code 1.  Seconds are wall clock, the
build and the sweeps timed apart.  Run:

    PYTHONPATH=src python3 scripts/fock_moment_scaling.py --max-depth 6
"""

import one_blas_thread  # noqa: F401  (before numpy)

import argparse
import itertools
import sys
import time

import numpy as np

from utcat.errors import DimensionCap
from utcat.semicircular import (
    BaseAlgebra,
    build_fock,
    covariance_from_automorphisms,
    covariance_from_vectors,
    semicircular_ops,
    vacuum_expectation,
)

TOL = 1e-9


def nc_moment(word, cov) -> complex:
    """Σ over the non-crossing pairings of `word` of Π cov[i, j] per pair."""
    memo = {}

    def m(lo, hi):
        if lo == hi:
            return 1.0
        if (lo, hi) not in memo:
            memo[(lo, hi)] = sum(cov[word[lo], word[k]] * m(lo + 1, k)
                                 * m(k + 1, hi)
                                 for k in range(lo + 1, hi, 2))
        return memo[(lo, hi)]

    return m(0, len(word)) if len(word) % 2 == 0 else 0.0


def nc_a_moment(eta, As, xs) -> np.ndarray:
    """E(a₀·X_{x₁}·a₁···X_{x_n}·a_n), As = [a₀, …, a_n]: X_{x₁} pairs with
    each X_{x_k}, k even, giving a₀·η_{x₁x_k}(E(inner))·E(outer)."""
    if len(xs) % 2:
        return np.zeros_like(As[0])
    if not xs:
        return As[0]
    return sum(As[0] @ eta.apply(xs[0], xs[k],
                                 nc_a_moment(eta, As[1:k + 1], xs[1:k]))
               @ nc_a_moment(eta, As[k + 1:], xs[k + 1:])
               for k in range(1, len(xs), 2))


def pair_family(rng):
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    cov = np.array([[np.vdot(u, v) for v in q] for u in q])
    return covariance_from_vectors([q[0], q[1]]), cov


def m2_family(rng):
    alg = BaseAlgebra((2,))
    th = rng.uniform(0.1, np.pi - 0.1)
    u = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    ad = np.stack([alg.coords(u @ e @ u.T) for e in alg.basis], axis=1)
    return covariance_from_automorphisms([ad], alg), np.array([[2.0]])


def sweep(fam, cov) -> tuple:
    """(words, seconds, worst relative deviation) over every X-word of
    length 1…2·depth."""
    eta, depth = fam.fock.eta, fam.fock.depth
    one = np.eye(eta.algebra.d)
    words = [w for n in range(1, 2 * depth + 1)
             for w in itertools.product(range(len(cov)), repeat=n)]
    wants = [nc_moment(w, cov) for w in words]
    t0 = time.perf_counter()
    gots = [vacuum_expectation(fam, [("X", eta.index[i]) for i in w])
            for w in words]
    seconds = time.perf_counter() - t0
    worst = max(float(np.max(np.abs(got - want * one))) / max(1.0, abs(want))
                for got, want in zip(gots, wants))
    return len(words), seconds, worst


def a_moment(eta, word) -> np.ndarray:
    """`nc_a_moment` of a word of ("X", i) letters and elements of A: the
    A letters next to each other multiply to one."""
    one = np.eye(eta.algebra.d)
    As, xs = [one], []
    for w in word:
        if isinstance(w, tuple):
            xs.append(w[1])
            As.append(one)
        else:
            As[-1] = As[-1] @ w
    return nc_a_moment(eta, As, xs)


def a_sweep(fam, rng, per_k: int = 3) -> tuple:
    """(words, seconds, worst relative deviation) over `per_k` pairs of
    words X^k·a·X^k and a·X^k·b·X^k·c with seeded X indices for each
    k ≤ depth, seeded a, b, c ∈ A."""
    eta, depth = fam.fock.eta, fam.fock.depth
    a, b, c = (eta.algebra.random(rng) for _ in range(3))
    words = []
    for k in range(depth + 1):
        for _ in range(per_k):
            X = [("X", eta.index[t])
                 for t in rng.integers(len(eta.index), size=2 * k)]
            words += [X[:k] + [a] + X[k:], [a] + X[:k] + [b] + X[k:] + [c]]
    wants = [a_moment(eta, word) for word in words]
    t0 = time.perf_counter()
    gots = [vacuum_expectation(fam, word) for word in words]
    seconds = time.perf_counter() - t0
    worst = max(float(np.max(np.abs(got - want)))
                / max(1.0, float(np.max(np.abs(want))))
                for got, want in zip(gots, wants))
    return len(words), seconds, worst


def dims(values) -> str:
    return "/".join(map(str, values))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-depth", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    families = {"pair": pair_family(rng), "m2": m2_family(rng)}
    print(f"{'family':>6} {'depth':>5} {'build s':>8} {'fock dim':>8} "
          f"{'words':>6} {'sweep s':>8} {'us/word':>8} {'max dev':>9} "
          f"{'a-words':>7} {'a s':>8} {'a dev':>9}  raw dims; level dims")
    failed = []
    for depth in range(1, args.max_depth + 1):
        for name, (eta, cov) in families.items():
            t0 = time.perf_counter()
            try:
                fock = build_fock(eta, depth)
            except DimensionCap as exc:
                print(f"{name:>6} {depth:>5}  not built: {exc}")
                continue
            build = time.perf_counter() - t0
            fam = semicircular_ops(fock)
            n, seconds, worst = sweep(fam, cov)
            na, a_seconds, a_worst = a_sweep(fam, rng)
            print(f"{name:>6} {depth:>5} {build:>8.4f} {fock.total_dim:>8} "
                  f"{n:>6} {seconds:>8.4f} {1e6 * seconds / n:>8.1f} "
                  f"{worst:>9.1e} {na:>7} {a_seconds:>8.4f} {a_worst:>9.1e}  "
                  f"{dims(fock.raw_dims)}; {dims(fock.level_dims)}")
            for what, dev in (("X-word", worst), ("A-letter", a_worst)):
                if not dev <= TOL:
                    failed.append(f"{name} {what} at depth {depth}: {dev:.2e}")
    for line in failed:
        print(f"moment deviation above {TOL:g}: {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
