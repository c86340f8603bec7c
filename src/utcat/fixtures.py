"""Built-in example categories used by tests and the CLI.

All F/R data here is in the gauge where the tree bases are orthonormal and
the F-matrices are real symmetric, so the matrices are convention-robust; the
pentagon/hexagon route checks in :mod:`.skeletal` pin everything down.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fusion_ring import FusionRing, validate_ring
from .skeletal import SkeletalUTC

__all__ = [
    "fibonacci",
    "ising",
    "vec_zn",
    "mult2_ring",
    "random_blocks",
    "FIXTURE_BUILDERS",
]

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _ring(labels, unit, dual, mult) -> FusionRing:
    return validate_ring({"labels": labels, "unit": unit, "dual": dual, "mult": mult})


def fibonacci() -> SkeletalUTC:
    """The Fibonacci category: labels {1, tau}, tau ⊗ tau = 1 ⊕ tau."""
    mult = {
        ("1", "1", "1"): 1,
        ("1", "tau", "tau"): 1,
        ("tau", "1", "tau"): 1,
        ("tau", "tau", "1"): 1,
        ("tau", "tau", "tau"): 1,
    }
    ring = _ring(["1", "tau"], "1", {"1": "1", "tau": "tau"}, mult)
    t = "tau"
    F = {
        (t, t, t, t): np.array(
            [[1.0 / PHI, 1.0 / np.sqrt(PHI)], [1.0 / np.sqrt(PHI), -1.0 / PHI]]
        ),
        (t, t, t, "1"): np.array([[1.0]]),
    }
    R = {
        (t, t, "1"): np.array([[np.exp(-4j * np.pi / 5.0)]]),
        (t, t, t): np.array([[np.exp(3j * np.pi / 5.0)]]),
    }
    return SkeletalUTC(ring, F, R, qdims={"1": 1.0, t: PHI})


def ising() -> SkeletalUTC:
    """The Ising category: labels {1, psi, sigma}."""
    s, p = "sigma", "psi"
    mult = {
        ("1", "1", "1"): 1,
        ("1", p, p): 1, (p, "1", p): 1,
        ("1", s, s): 1, (s, "1", s): 1,
        (p, p, "1"): 1,
        (p, s, s): 1, (s, p, s): 1,
        (s, s, "1"): 1, (s, s, p): 1,
    }
    ring = _ring(["1", p, s], "1", {"1": "1", p: p, s: s}, mult)
    one = np.array([[1.0]])
    F = {
        (s, s, s, s): np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
        (p, s, p, s): -one,
        (s, p, s, p): -one,
        (p, p, p, p): one,
        (p, p, s, s): one,
        (s, p, p, s): one,
        (p, s, s, "1"): one,
        (s, s, p, "1"): one,
        (s, p, s, "1"): one,
        (p, s, s, p): one,
        (s, s, p, p): one,
    }
    R = {
        (s, s, "1"): np.array([[np.exp(-1j * np.pi / 8.0)]]),
        (s, s, p): np.array([[np.exp(3j * np.pi / 8.0)]]),
        (p, p, "1"): -one.astype(complex),
        (s, p, s): np.array([[-1j]]),
        (p, s, s): np.array([[-1j]]),
    }
    return SkeletalUTC(ring, F, R, qdims={"1": 1.0, p: 1.0, s: np.sqrt(2.0)})


def vec_zn(n: int) -> SkeletalUTC:
    """Pointed category of Z/n-graded vector spaces, trivial associator/braiding."""
    if not (1 <= n <= 36):
        raise ValueError("n out of supported range")
    labels = [f"g{k}" for k in range(n)]
    mult = {}
    for i in range(n):
        for j in range(n):
            mult[(labels[i], labels[j], labels[(i + j) % n])] = 1
    dual = {labels[k]: labels[(-k) % n] for k in range(n)}
    ring = _ring(labels, "g0", dual, mult)
    one = np.array([[1.0]])
    F, R = {}, {}
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                F[(labels[i], labels[j], labels[k], labels[(i + j + k) % n])] = one
    for i in range(n):
        for j in range(n):
            R[(labels[i], labels[j], labels[(i + j) % n])] = one.astype(complex)
    return SkeletalUTC(ring, F, R, qdims={x: 1.0 for x in labels})


def mult2_ring() -> FusionRing:
    """Fusion ring {1, x} with x ⊗ x = 1 ⊕ 2x (no categorification supplied).

    Used to exercise multiplicity bookkeeping in tree enumeration.
    """
    mult = {
        ("1", "1", "1"): 1,
        ("1", "x", "x"): 1,
        ("x", "1", "x"): 1,
        ("x", "x", "1"): 1,
        ("x", "x", "x"): 2,
    }
    return _ring(["1", "x"], "1", {"1": "1", "x": "x"}, mult)


def random_blocks(ring: FusionRing, seed: int) -> SkeletalUTC:
    """Seeded random complex F and R blocks of the shapes ``ring`` asks for.

    Not a category (pentagon and hexagon fail), but every block index and
    multiplicity index is populated, so the coherence checks can be compared
    with a reference on rings such as :func:`mult2_ring`.
    """
    rng = np.random.default_rng(seed)

    def block(n):
        return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))

    unit, labels = ring.unit, ring.labels
    F = {}
    for key in itertools.product(labels, repeat=4):
        n = len(ring.f_index(*key).left)
        if n and unit not in key[:3]:
            F[key] = block(n)
    R = {(a, b, c): block(n) for a, b in itertools.product(labels, repeat=2)
         for c, n in ring.channels(a, b) if unit not in (a, b)}
    return SkeletalUTC(ring, F, R)


FIXTURE_BUILDERS = {
    "fib": fibonacci,
    "ising": ising,
    **{f"vec_z{n}": (lambda n=n: vec_zn(n)) for n in range(1, 7)},
}
