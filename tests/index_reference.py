"""The per-key F-index bookkeeping and ring-axiom loops, kept as the
reference for the integer tables of :mod:`utcat.fusion_ring`.

:func:`f_index` lists the left (e, α, β) and right (f, μ, ν) basis of one
F-block by looping over channels, as an :class:`FIndex` with the position of
each triple, :func:`index_groups` cuts such a list into
its channel slices (as the JSON schema once did), :func:`blocks` stacks every
F or R block of a category by size one key at a time (as the coherence
checks once did), :func:`check_ring_axioms` is the loop form of the ring
axiom check, and :func:`su2k` builds SU(2)_k filling each F-block key by key
through :func:`f_index`, as :func:`utcat.fixtures.su2k` once did.
:func:`fmat`, :func:`rmat` and :func:`finv` read one block of a category's
F, R and F⁻¹ buffers through ``skeletal._block``, as ``SkeletalUTC.fmat``,
``SkeletalUTC.rmat`` and ``SkeletalUTC._finv`` once did, and
:func:`block_keys` lists the label keys of the blocks without a unit leg, as
``SkeletalUTC.f_symbols`` and ``r_symbols`` once did; :func:`edited` sets one
block of a copy of a category's buffers.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from utcat.errors import AxiomViolation
from utcat.fusion_ring import validate_ring
from utcat.skeletal import SkeletalUTC, _block


class FIndex(NamedTuple):
    """Basis index of one F-block F[a,b,c;d], in sorted channel order.

    ``left`` holds the triples (e, α, β) with α ∈ O(e, a⊗b), β ∈ O(d, e⊗c);
    ``right`` the triples (f, μ, ν) with μ ∈ O(f, b⊗c), ν ∈ O(d, a⊗f).
    ``lpos``/``rpos`` map a triple to its position.
    """

    left: tuple
    right: tuple
    lpos: dict
    rpos: dict


def f_index(ring, a, b, c, d) -> FIndex:
    """The left/right basis index of F[a,b,c;d], from the channel tuples."""
    left = tuple((e, al, be) for e, n_ab in ring.channels(a, b)
                 for al in range(n_ab) for be in range(ring.N(e, c, d)))
    right = tuple((f, mu, nu) for f, n_bc in ring.channels(b, c)
                  for mu in range(n_bc) for nu in range(ring.N(a, f, d)))
    return FIndex(left, right, {t: i for i, t in enumerate(left)},
                  {t: i for i, t in enumerate(right)})


def index_groups(entries) -> dict:
    """Contiguous (channel → row slice) map of a sorted multiplicity index."""
    groups = {}
    for pos, (e, _, _) in enumerate(entries):
        if e not in groups:
            groups[e] = [pos, pos + 1]
        else:
            groups[e][1] = pos + 1
    return {e: slice(lo, hi) for e, (lo, hi) in groups.items()}


def block_keys(ring, t) -> list:
    """The label keys of the blocks of the table ``t`` (``ring.ftable`` or
    ``ring.rtable``) without a unit leg, in table order."""
    lab = np.array(ring.labels, dtype=object)
    return list(map(tuple, lab[t.keys[~t.unit_leg]].tolist()))


def fmat(cat, a, b, c, d) -> np.ndarray:
    """F[a,b,c;d] as a view of the category's F buffer."""
    return _block(cat.ring, cat.ring.ftable, cat._F, (a, b, c, d))


def rmat(cat, a, b, c) -> np.ndarray:
    """R^{a,b;c} as a view of the category's R buffer."""
    return _block(cat.ring, cat.ring.rtable, cat._R, (a, b, c))


def edited(cat, kind: str, key: tuple, M) -> SkeletalUTC:
    """``cat`` with its ``kind`` ("F" or "R") block at the labels ``key`` set
    to ``M``, in a copy of its buffer written through ``skeletal._block``."""
    bufs = {"F": np.array(cat._F), "R": np.array(cat._R)}
    _block(cat.ring, cat.ring.ftable if kind == "F" else cat.ring.rtable, bufs[kind], key)[...] = M
    return SkeletalUTC(cat.ring, bufs["F"], bufs["R"])


def finv(cat, a, b, c, d) -> np.ndarray:
    """F[a,b,c;d]⁻¹ as a view of the category's F⁻¹ buffer (LinAlgError if
    any block is singular)."""
    return _block(cat.ring, cat.ring.ftable, cat._inverses(), (a, b, c, d))


def f_keys(ring) -> list:
    """Sorted (a, b, c, d) whose F-block is nonzero."""
    return sorted({(a, b, c, d) for a, b, e in r_keys(ring)
                   for c in ring.labels for d, _ in ring.channels(e, c)})


def r_keys(ring) -> list:
    """(a, b, c) whose R-block is nonzero."""
    return [(a, b, c) for a, b in itertools.product(ring.labels, repeat=2)
            for c, _ in ring.channels(a, b)]


def blocks(cat, kind: str) -> list:
    """Every F (``kind`` "F") or R ("R") block stacked by size, one key at a
    time: (keys, key label positions, left slots, right slots, stack) per
    size; an F slot is (label position, multiplicity, multiplicity), an R
    slot one multiplicity."""
    F, pos, groups = kind == "F", cat.ring.index, {}
    for key in f_keys(cat.ring) if F else r_keys(cat.ring):
        M = fmat(cat, *key) if F else rmat(cat, *key)
        slots = ([[(pos[x], i, j) for x, i, j in side] for side in f_index(cat.ring, *key)[:2]]
                 if F else [[(i,) for i in range(len(M))]] * 2)
        groups.setdefault(len(M), []).append((key, M, slots))
    out = []
    for g in groups.values():
        keys, stack, slots = zip(*g)
        out.append((keys, np.array([[pos[x] for x in k] for k in keys]),
                    *np.array(slots).swapaxes(0, 1), np.array(stack)))
    return out


def check_ring_axioms(labels, unit, dual, mult) -> list[AxiomViolation]:
    """Return the full list of violated axioms (empty when the data is a ring)."""
    violations: list[AxiomViolation] = []
    labels = sorted(labels)
    idx = {x: i for i, x in enumerate(labels)}
    n = len(labels)
    N = np.zeros((n, n, n), dtype=np.int64)
    for (x, y, z), m in mult.items():
        if m < 0:
            violations.append(AxiomViolation("nonnegativity", (x, y, z), f"N={m}"))
        N[idx[x], idx[y], idx[z]] = m

    u = idx[unit]
    for y in range(n):
        for z in range(n):
            if N[u, y, z] != (1 if y == z else 0):
                violations.append(AxiomViolation("unit_left", (unit, labels[y], labels[z])))
            if N[y, u, z] != (1 if y == z else 0):
                violations.append(AxiomViolation("unit_right", (labels[y], unit, labels[z])))

    for x in labels:
        if dual.get(dual.get(x)) != x:
            violations.append(AxiomViolation("dual_involution", (x,)))
    if dual.get(unit) != unit:
        violations.append(AxiomViolation("dual_unit", (unit,)))

    dvec = np.array([idx[dual[x]] for x in labels])
    for x in range(n):
        for y in range(n):
            want = 1 if dvec[x] == y else 0
            if N[x, y, u] != want:
                violations.append(AxiomViolation("duality", (labels[x], labels[y], unit)))

    # associativity: sum_w N[x,y,w] N[w,v,z] == sum_w N[y,v,w] N[x,w,z]
    lhs = np.einsum("xyw,wvz->xyvz", N, N)
    rhs = np.einsum("yvw,xwz->xyvz", N, N)
    for x, y, v, z in zip(*np.nonzero(lhs != rhs)):
        violations.append(
            AxiomViolation(
                "associativity",
                (labels[x], labels[y], labels[v], labels[z]),
                f"{lhs[x, y, v, z]} != {rhs[x, y, v, z]}",
            )
        )

    # Frobenius reciprocity: N[x][y][z] = N[dual x][z][y] = N[z][dual y][x]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                a = N[x, y, z]
                if N[dvec[x], z, y] != a or N[z, dvec[y], x] != a:
                    violations.append(
                        AxiomViolation("frobenius_reciprocity", (labels[x], labels[y], labels[z]))
                    )
    return violations


def su2k(k: int) -> SkeletalUTC:
    """SU(2)_k from q-6j symbols, each F-block filled over the label triples
    of :func:`f_index`; the formulas are those of :func:`utcat.fixtures.su2k`."""
    s = np.pi / (k + 2)
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
    ring = validate_ring({"labels": labels, "unit": "j0", "dual": {x: x for x in labels},
                          "mult": mult})
    spin = {x: int(x[1:]) for x in labels}  # doubled spin
    ft, rt = ring.ftable, ring.rtable
    F, R = np.zeros(ft.buffer_length, dtype=complex), np.zeros(rt.buffer_length, dtype=complex)
    for key in itertools.product(labels[1:], labels[1:], labels[1:], labels):
        idx = f_index(ring, *key)
        if not idx.left:
            continue
        a, b, c, d = (spin[x] for x in key)
        _block(ring, ft, F, key)[...] = np.array(
            [[(-1) ** ((a + b + c + d) // 2)
              * np.sqrt(qfact[spin[e] + 1] / qfact[spin[e]]
                        * qfact[spin[f] + 1] / qfact[spin[f]])
              * sixj(a, b, spin[e], c, d, spin[f])
              for f, _, _ in idx.right] for e, _, _ in idx.left])
    for x, y in itertools.product(labels[1:], repeat=2):
        for z, _ in ring.channels(x, y):
            a, b, c = spin[x], spin[y], spin[z]
            _block(ring, rt, R, (x, y, z))[...] = (-1) ** ((c - a - b) // 2) * np.exp(
                2j * s * (c * (c + 2) - a * (a + 2) - b * (b + 2)) / 8)
    # every block without a unit leg is written; the others are the identity
    return SkeletalUTC(ring, F, R, (~ft.unit_leg, ~rt.unit_leg))
