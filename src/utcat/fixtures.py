"""Built-in example categories used by tests and the CLI.

All F/R data here is in the gauge where the tree bases are orthonormal and
the F-matrices are real orthogonal (symmetric, except for some SU(2)_k
blocks), so the matrices are convention-robust; the pentagon/hexagon route
checks in :mod:`.skeletal` pin everything down.
"""

from __future__ import annotations

import itertools

import numpy as np

from .fusion_ring import FusionRing, validate_ring
from .skeletal import SkeletalUTC, _block

__all__ = [
    "fibonacci",
    "ising",
    "vec_zn",
    "su2k",
    "mult2_ring",
    "random_blocks",
    "FIXTURE_BUILDERS",
]

PHI = (1.0 + np.sqrt(5.0)) / 2.0


def _ring(labels, unit, dual, mult) -> FusionRing:
    return validate_ring({"labels": labels, "unit": unit, "dual": dual, "mult": mult})


def _written(ring: FusionRing, F: dict, R: dict) -> SkeletalUTC:
    """The category of the hand-written blocks ``F`` and ``R``, keyed by
    labels; the unit-leg blocks not written are the identity."""
    bufs = []
    for t, blocks in ((ring.ftable, F), (ring.rtable, R)):
        buf = np.zeros(t.buffer_length, dtype=complex)
        written = np.zeros(t.buffer_length, dtype=bool)
        for key, M in blocks.items():
            _block(ring, t, buf, key)[...] = M
            _block(ring, t, written, key)[...] = True
        bufs += [buf, written[t.offset]]  # a block is written where its first entry is
    F, fgiven, R, rgiven = bufs
    return SkeletalUTC(ring, F, R, (fgiven, rgiven))


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
    return _written(ring, F, R)


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
    return _written(ring, F, R)


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
    # every associator and braiding is trivial, and each unit-leg block is
    # the identity: every block is [[1]]
    F, R = (np.ones(t.buffer_length, dtype=complex) for t in (ring.ftable, ring.rtable))
    return SkeletalUTC(ring, F, R)


def su2k(k: int) -> SkeletalUTC:
    """SU(2)_k from q-6j symbols (Kirillov–Reshetikhin), q = e^{2πi/(k+2)}.

    Labels ``j<2j>`` for spins j = 0, ½, …, k/2, all self-dual; d_j = [2j+1]_q,
    F^{abc}_d[e,f] = (−1)^{a+b+c+d}·√([2e+1][2f+1])·{a b e; c d f}_q from the
    Racah sum, R^{ab}_c = (−1)^{c−a−b} q^{(c(c+1)−a(a+1)−b(b+1))/2} (spins).
    Each block is filled along its slot rows in ``ring.ftable`` (channel e
    down the rows, f across the columns), whose label order sorts ``j10``
    before ``j2``.  The mirror category has the conjugate R blocks.
    """
    if not (1 <= k <= 36):
        raise ValueError("k out of supported range")
    s = np.pi / (k + 2)
    # [n]! for n ≤ 2k+2; past [k+1]! each holds [k+2] = 0 (up to rounding)
    qfact = np.cumprod([1.0] + [np.sin(n * s) / np.sin(s) for n in range(1, 2 * k + 3)])
    labels = [f"j{n}" for n in range(k + 1)]

    def admissible(a, b, c):  # doubled spins
        return (a + b + c) % 2 == 0 and abs(a - b) <= c <= min(a + b, 2 * k - a - b)

    def delta(a, b, c):
        return np.sqrt(qfact[(a + b - c) // 2] * qfact[(a - b + c) // 2]
                       * qfact[(b + c - a) // 2] / qfact[(a + b + c) // 2 + 1])

    def sixj(a, b, e, c, d, f):
        tri = [(a + b + e) // 2, (e + c + d) // 2, (b + c + f) // 2, (a + f + d) // 2]
        quad = [(a + b + c + d) // 2, (a + e + c + f) // 2, (b + e + d + f) // 2]
        racah = sum((-1) ** z * qfact[z + 1]
                    / np.prod([qfact[z - t] for t in tri] + [qfact[p - z] for p in quad])
                    for z in range(max(tri), min(quad) + 1))
        return delta(a, b, e) * delta(e, c, d) * delta(b, c, f) * delta(a, f, d) * racah

    mult = {(labels[a], labels[b], labels[c]): 1
            for a, b, c in itertools.product(range(k + 1), repeat=3) if admissible(a, b, c)}
    ring = _ring(labels, "j0", {x: x for x in labels}, mult)
    spin = {x: int(x[1:]) for x in labels}  # doubled spin
    pos_spin = [spin[x] for x in ring.labels]  # by label position
    t, rt = ring.ftable, ring.rtable
    F, R = np.zeros(t.buffer_length, dtype=complex), np.zeros(rt.buffer_length, dtype=complex)
    for blk in np.flatnonzero(~t.unit_leg).tolist():
        rows, key = slice(t.start[blk], t.start[blk] + t.size[blk]), t.keys[blk].tolist()
        a, b, c, d = (pos_spin[x] for x in key)
        es, fs = ([pos_spin[x] for x in side[rows, 0].tolist()] for side in (t.left, t.right))
        F[t.offset[blk]:t.offset[blk] + t.size[blk] ** 2] = np.ravel(
            [[(-1) ** ((a + b + c + d) // 2)
              * np.sqrt(qfact[e + 1] / qfact[e] * qfact[f + 1] / qfact[f])
              * sixj(a, b, e, c, d, f) for f in fs] for e in es])
    for blk in np.flatnonzero(~rt.unit_leg).tolist():  # multiplicity free: one entry
        a, b, c = (pos_spin[x] for x in rt.keys[blk].tolist())
        R[rt.offset[blk]] = (-1) ** ((c - a - b) // 2) * np.exp(
            2j * s * (c * (c + 2) - a * (a + 2) - b * (b + 2)) / 8)
    return SkeletalUTC(ring, F, R, (~t.unit_leg, ~rt.unit_leg))


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
    bufs = []
    for t in (ring.ftable, ring.rtable):
        buf = np.zeros(t.buffer_length, dtype=complex)
        for k in np.flatnonzero(~t.unit_leg).tolist():
            n = t.size[k]
            buf[t.offset[k]:t.offset[k] + n * n] = (rng.normal(size=(n, n))
                                                     + 1j * rng.normal(size=(n, n))).ravel()
        bufs.append(buf)
    return SkeletalUTC(ring, *bufs, (~ring.ftable.unit_leg, ~ring.rtable.unit_leg))


FIXTURE_BUILDERS = {
    "fib": fibonacci,
    "ising": ising,
    **{f"vec_z{n}": (lambda n=n: vec_zn(n)) for n in range(1, 7)},
    **{f"su2_{k}": (lambda k=k: su2k(k)) for k in range(2, 6)},
}
