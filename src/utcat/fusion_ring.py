"""Fusion rings: labels, unit, duals, multiplicity tensor, PF dimensions.

A :class:`FusionRing` is the combinatorial skeleton of a unitary tensor
category.  Everything downstream (tree bases, F-moves, algebra objects) only
ever talks to the ring through the small query surface here, so validation is
strict and happens once, in :func:`validate_ring`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AxiomViolation, NonIrreducibleInput, RingAxiomError, UnknownLabel

__all__ = ["FIndex", "FusionRing", "SupportSet", "validate_ring"]

_POWER_ITER_TOL = 1e-12
_POWER_ITER_MAX = 10_000


@dataclass(frozen=True)
class SupportSet:
    """Finite, dual-closed, unit-containing truncation of the label set."""

    labels: tuple[str, ...]
    generators: tuple[str, ...]
    depth: int

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)


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


class FusionRing:
    """Validated fusion data.  Immutable; construct via :func:`validate_ring`.

    Every query reads tables built once per instance: ``_mult[i][j][k]`` is
    N_ij^k over label positions, and ``_channels[(x, y)]`` is the tuple of
    ``(z, N_xy^z)`` pairs with N_xy^z > 0, in sorted-label order.  F-block
    indices and PF dimensions are cached on the instance as they are asked
    for, so they live exactly as long as the ring.
    """

    def __init__(self, labels, unit, dual, mult):
        # labels sorted lexicographically: the single deterministic ordering
        # used for every basis enumeration in the engine.
        self.labels: tuple[str, ...] = tuple(sorted(labels))
        self.unit: str = unit
        self.dual: dict[str, str] = dict(dual)
        self.index: dict[str, int] = {x: i for i, x in enumerate(self.labels)}
        n = len(self.labels)
        N = np.zeros((n, n, n), dtype=np.int64)
        for (x, y, z), m in mult.items():
            N[self.index[x], self.index[y], self.index[z]] = m
        self._N = N
        self._N.setflags(write=False)
        self._mult = N.tolist()
        self._channels = {
            (x, y): tuple((z, m) for z, m in zip(self.labels, self._mult[i][j]) if m)
            for i, x in enumerate(self.labels) for j, y in enumerate(self.labels)
        }
        self._f_index: dict[tuple, FIndex] = {}
        self._fp_dim: dict[str, float] = {}

    # -- queries ----------------------------------------------------------

    def _i(self, x: str) -> int:
        try:
            return self.index[x]
        except KeyError:
            raise UnknownLabel(x) from None

    def N(self, x: str, y: str, z: str) -> int:
        """Multiplicity of ``z`` in ``x ⊗ y``."""
        idx = self.index
        try:
            return self._mult[idx[x]][idx[y]][idx[z]]
        except KeyError as exc:
            raise UnknownLabel(exc.args[0]) from None

    def channels(self, x: str, y: str) -> tuple:
        """The ``(z, N_xy^z)`` pairs with N_xy^z > 0, in sorted-label order."""
        try:
            return self._channels[(x, y)]
        except KeyError:
            raise UnknownLabel(y if x in self.index else x) from None

    def fuse(self, x: str, y: str) -> dict[str, int]:
        return dict(self.channels(x, y))

    def fusion_matrix(self, x: str) -> np.ndarray:
        """The matrix (N_x)[y, z] = N(x, y, z)."""
        return self._N[self._i(x)].astype(float)

    def f_index(self, a: str, b: str, c: str, d: str) -> FIndex:
        """The left/right basis index of F[a,b,c;d], built once per key."""
        key = (a, b, c, d)
        idx = self._f_index.get(key)
        if idx is None:
            left = tuple((e, al, be) for e, n_ab in self.channels(a, b)
                         for al in range(n_ab) for be in range(self.N(e, c, d)))
            right = tuple((f, mu, nu) for f, n_bc in self.channels(b, c)
                          for mu in range(n_bc) for nu in range(self.N(a, f, d)))
            idx = FIndex(left, right, {t: i for i, t in enumerate(left)},
                         {t: i for i, t in enumerate(right)})
            self._f_index[key] = idx
        return idx

    def fp_dimension(self, x: str) -> float:
        if x not in self.index:
            raise NonIrreducibleInput(x)
        if x not in self._fp_dim:
            self._fp_dim[x] = self._perron_eigenvalue(x)
        return self._fp_dim[x]

    def _perron_eigenvalue(self, x: str) -> float:
        # Power iteration on N_x + I (the shift keeps the Perron pair but
        # breaks the period-2 oscillation of bipartite fusion graphs).
        M = self.fusion_matrix(x) + np.eye(len(self.labels))
        v = np.ones(len(self.labels))
        lam = 0.0
        for _ in range(_POWER_ITER_MAX):
            w = M @ v
            new_lam = float(v @ w) / float(v @ v)
            v = w / np.linalg.norm(w)
            if abs(new_lam - lam) < _POWER_ITER_TOL:
                return new_lam - 1.0
            lam = new_lam
        return lam - 1.0

    def global_dim_sq(self) -> float:
        return sum(self.fp_dimension(x) ** 2 for x in self.labels)

    def fusion_closure(self, generators, depth: int) -> SupportSet:
        gens = tuple(sorted(set(generators)))
        for g in gens:
            self._i(g)
        current = set(gens) | {self.unit}
        current |= {self.dual[x] for x in current}
        for _ in range(max(depth, 0)):
            new = set(current)
            for x in current:
                for y in current:
                    new.update(z for z, _ in self.channels(x, y))
            new |= {self.dual[x] for x in new}
            if new == current:
                break
            current = new
        return SupportSet(labels=tuple(sorted(current)), generators=gens, depth=depth)

    # -- misc --------------------------------------------------------------

    def __repr__(self) -> str:
        return f"FusionRing(labels={self.labels}, unit={self.unit!r})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FusionRing)
            and self.labels == other.labels
            and self.unit == other.unit
            and self.dual == other.dual
            and np.array_equal(self._N, other._N)
        )

    def __hash__(self) -> int:
        return hash((self.labels, self.unit, tuple(sorted(self.dual.items()))))


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


def validate_ring(raw: dict) -> FusionRing:
    """Validate raw ring data ``{labels, unit, dual, mult}`` and build the ring.

    ``mult`` maps (x, y, z) triples to non-negative integers; missing triples
    are zero.  Raises :class:`RingAxiomError` carrying all violations.
    """
    labels = list(raw["labels"])
    if not labels:
        raise RingAxiomError([AxiomViolation("nonempty_labels", ())])
    unit = raw["unit"]
    if unit not in labels:
        raise RingAxiomError([AxiomViolation("unit_in_labels", (unit,))])
    if len(set(labels)) != len(labels):
        raise RingAxiomError([AxiomViolation("distinct_labels", ())])
    dual = dict(raw["dual"])
    if set(dual) != set(labels) or not set(dual.values()) <= set(labels):
        raise RingAxiomError([AxiomViolation("dual_domain", ())])
    mult = {k: int(v) for k, v in raw["mult"].items()}
    for (x, y, z) in mult:
        for lbl in (x, y, z):
            if lbl not in set(labels):
                raise RingAxiomError([AxiomViolation("unknown_label_in_mult", (x, y, z))])
    violations = check_ring_axioms(labels, unit, dual, mult)
    if violations:
        raise RingAxiomError(violations)
    return FusionRing(labels, unit, dual, mult)
