"""JSON (de)serialization for rings, categories, algebra objects, states, η.

Wire conventions: complex numbers are ``[re, im]`` pairs; composite keys are
comma/semicolon joined label strings ("x,y", "a,b,c;d", "X,Y;Z;v").  Parsing
failures raise :class:`SchemaError` carrying a JSON-pointer-ish path.
"""

from __future__ import annotations

import numpy as np

from .algebra_object import AlgebraObject
from .errors import SchemaError
from .fusion_ring import FusionRing, validate_ring
from .semicircular import BaseAlgebra, CovarianceMatrix
from .skeletal import SkeletalUTC

__all__ = [
    "aobj_from_json", "aobj_to_json", "base_from_json", "cat_from_json",
    "cat_to_json", "eta_from_json", "ring_from_json", "ring_to_json",
    "state_from_json",
]


# -- scalars -------------------------------------------------------------

def _complex_in(v, ptr: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(v)
    if (isinstance(v, (list, tuple)) and len(v) == 2
            and all(isinstance(t, (int, float)) for t in v)):
        return complex(v[0], v[1])
    raise SchemaError(f"expected a complex number as [re, im], got {v!r}", ptr)


def _complex_out(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _matrix_in(rows, ptr: str) -> np.ndarray:
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SchemaError("expected a matrix as a list of rows", ptr)
    widths = {len(r) for r in rows}
    if len(widths) > 1:
        raise SchemaError("ragged matrix rows", ptr)
    out = np.array([[_complex_in(v, f"{ptr}/{i}/{k}")
                     for k, v in enumerate(row)]
                    for i, row in enumerate(rows)], dtype=complex)
    return out.reshape((len(rows), widths.pop() if widths else 0))


def _matrix_out(m) -> list:
    return [[_complex_out(v) for v in row] for row in np.atleast_2d(m)]


def _require(raw: dict, key: str, ptr: str = ""):
    if not isinstance(raw, dict):
        raise SchemaError("expected a JSON object", ptr or "/")
    if key not in raw:
        raise SchemaError(f"missing required key {key!r}", f"{ptr}/{key}")
    return raw[key]


def _split(key: str, seps: tuple, arity: int, ptr: str) -> list:
    parts = [key]
    for sep in seps:
        parts = [p for chunk in parts for p in chunk.split(sep)]
    if len(parts) != arity:
        raise SchemaError(f"expected a {arity}-part key, got {key!r}", ptr)
    return parts


# -- fusion rings --------------------------------------------------------

def ring_from_json(raw: dict) -> FusionRing:
    """{labels, unit, dual, fusion: {"x,y": {z: int}}} → validated ring."""
    labels = _require(raw, "labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels must be a list of strings", "/labels")
    unit = _require(raw, "unit")
    dual = _require(raw, "dual")
    if not isinstance(dual, dict):
        raise SchemaError("dual must map labels to labels", "/dual")
    fusion = _require(raw, "fusion")
    if not isinstance(fusion, dict):
        raise SchemaError("fusion must be an object keyed by 'x,y'", "/fusion")
    mult = {}
    for key, channels in fusion.items():
        x, y = _split(key, (",",), 2, f"/fusion/{key}")
        if not isinstance(channels, dict):
            raise SchemaError("fusion entry must map channels to counts",
                              f"/fusion/{key}")
        for z, m in channels.items():
            if not isinstance(m, int) or isinstance(m, bool):
                raise SchemaError(f"fusion count must be an integer, got {m!r}",
                                  f"/fusion/{key}/{z}")
            mult[(x, y, z)] = m
    return validate_ring({"labels": labels, "unit": unit, "dual": dual,
                          "mult": mult})


def ring_to_json(ring: FusionRing) -> dict:
    fusion = {}
    for x in ring.labels:
        for y in ring.labels:
            chan = {z: int(ring.N(x, y, z)) for z in ring.labels
                    if ring.N(x, y, z)}
            if chan:
                fusion[f"{x},{y}"] = chan
    return {"labels": list(ring.labels), "unit": ring.unit,
            "dual": dict(ring.dual), "fusion": fusion}


# -- skeletal categories --------------------------------------------------

def _index_groups(ring: FusionRing, entries):
    """Contiguous (channel → row slice) map of a sorted multiplicity index."""
    groups, start = {}, 0
    for pos, (e, _, _) in enumerate(entries):
        if e not in groups:
            groups[e] = [pos, pos + 1]
        else:
            groups[e][1] = pos + 1
    return {e: slice(lo, hi) for e, (lo, hi) in groups.items()}


def cat_from_json(raw: dict) -> SkeletalUTC:
    """Ring schema extended with F, R (optional), qdim (optional)."""
    ring = ring_from_json(raw)
    fraw = _require(raw, "F")
    if not isinstance(fraw, dict):
        raise SchemaError("F must be an object keyed by 'a,b,c;d'", "/F")
    F = {}
    for key, sub in fraw.items():
        ptr = f"/F/{key}"
        a, b, c, d = _split(key, (";", ","), 4, ptr)
        idx = ring.f_index(a, b, c, d)
        left, right = idx.left, idx.right
        if len(left) != len(right):
            raise SchemaError("hom-space dimensions disagree", ptr)
        lgrp = _index_groups(ring, left)
        rgrp = _index_groups(ring, right)
        block = np.zeros((len(left), len(right)), dtype=complex)
        if not isinstance(sub, dict):
            raise SchemaError("F block must be an object keyed by 'e,f'", ptr)
        for pair, rows in sub.items():
            e, f = _split(pair, (",",), 2, f"{ptr}/{pair}")
            if e not in lgrp or f not in rgrp:
                raise SchemaError(f"channel pair ({e},{f}) not allowed here",
                                  f"{ptr}/{pair}")
            m = _matrix_in(rows, f"{ptr}/{pair}")
            want = (lgrp[e].stop - lgrp[e].start, rgrp[f].stop - rgrp[f].start)
            if m.shape != want:
                raise SchemaError(f"submatrix shape {m.shape} != {want}",
                                  f"{ptr}/{pair}")
            block[lgrp[e], rgrp[f]] = m
        F[(a, b, c, d)] = block

    R = None
    if "R" in raw:
        if not isinstance(raw["R"], dict):
            raise SchemaError("R must be an object keyed by 'a,b;c'", "/R")
        R = {}
        for key, rows in raw["R"].items():
            ptr = f"/R/{key}"
            a, b, c = _split(key, (";", ","), 3, ptr)
            m = _matrix_in(rows, ptr)
            n = ring.N(a, b, c)
            if m.shape != (n, n):
                raise SchemaError(f"R block shape {m.shape} != {(n, n)}", ptr)
            R[(a, b, c)] = m

    qdims = None
    if "qdim" in raw:
        if not isinstance(raw["qdim"], dict):
            raise SchemaError("qdim must map labels to reals", "/qdim")
        qdims = {}
        for x, v in raw["qdim"].items():
            if x not in ring.labels or not isinstance(v, (int, float)):
                raise SchemaError(f"bad qdim entry {x!r}: {v!r}", f"/qdim/{x}")
            qdims[x] = float(v)
    return SkeletalUTC(ring, F, R, qdims=qdims)


def cat_to_json(cat: SkeletalUTC) -> dict:
    ring = cat.ring
    out = ring_to_json(ring)
    F = {}
    for (a, b, c, d) in cat._F:
        idx = ring.f_index(a, b, c, d)
        lgrp = _index_groups(ring, idx.left)
        rgrp = _index_groups(ring, idx.right)
        M = cat.fmat(a, b, c, d)
        sub = {}
        for e, ls in lgrp.items():
            for f, rs in rgrp.items():
                m = M[ls, rs]
                if np.any(m):
                    sub[f"{e},{f}"] = _matrix_out(m)
        F[f"{a},{b},{c};{d}"] = sub
    out["F"] = F
    if cat.braided:
        out["R"] = {f"{a},{b};{c}": _matrix_out(m)
                    for (a, b, c), m in cat._R.items()}
    out["qdim"] = {x: float(cat.qdim[x]) for x in ring.labels}
    return out


# -- algebra objects -------------------------------------------------------

def aobj_from_json(cat: SkeletalUTC, raw: dict) -> AlgebraObject:
    """{support, fibers, mult: {"X,Y;Z;v": [[[complex]]]}, star, unit}."""
    ring = cat.ring
    support = _require(raw, "support")
    fibers_raw = _require(raw, "fibers")
    if not isinstance(fibers_raw, dict):
        raise SchemaError("fibers must map labels to dimensions", "/fibers")
    fibers = {}
    for X, n in fibers_raw.items():
        if X not in ring.labels:
            raise SchemaError(f"unknown label {X!r}", f"/fibers/{X}")
        if not isinstance(n, int) or n < 0:
            raise SchemaError(f"fiber dimension must be a non-negative int",
                              f"/fibers/{X}")
        fibers[X] = n
    if sorted(x for x in support) != sorted(X for X, n in fibers.items() if n):
        raise SchemaError("support does not match the nonzero fibers",
                          "/support")

    def dim(X, ptr):
        if X not in ring.labels:
            raise SchemaError(f"unknown label {X!r}", ptr)
        return fibers.get(X, 0)

    mult = {}
    for key, arr in _require(raw, "mult").items():
        ptr = f"/mult/{key}"
        X, Y, Z, v = _split(key, (";", ","), 4, ptr)
        try:
            v = int(v)
        except ValueError:
            raise SchemaError(f"multiplicity index must be an int, got {v!r}",
                              ptr)
        if not 0 <= v < ring.N(X, Y, Z):
            raise SchemaError(f"multiplicity index {v} out of range", ptr)
        if not isinstance(arr, list):
            raise SchemaError("expected a rank-3 coefficient array", ptr)
        t = np.array([[[_complex_in(val, f"{ptr}/{i}/{k}/{l}")
                        for l, val in enumerate(row)]
                       for k, row in enumerate(mat)]
                      for i, mat in enumerate(arr)], dtype=complex)
        want = (dim(Z, ptr), dim(X, ptr), dim(Y, ptr))
        if t.shape != want:
            raise SchemaError(f"tensor shape {t.shape} != {want}", ptr)
        mult[(X, Y, Z, v)] = t

    star = {}
    for X, rows in _require(raw, "star").items():
        ptr = f"/star/{X}"
        m = _matrix_in(rows, ptr)
        want = (dim(cat.dual(X), ptr), dim(X, ptr))
        if m.shape != want:
            raise SchemaError(f"star matrix shape {m.shape} != {want}", ptr)
        star[X] = m

    unit_raw = _require(raw, "unit")
    if not isinstance(unit_raw, list):
        raise SchemaError("unit must be a coefficient vector", "/unit")
    unit = np.array([_complex_in(v, f"/unit/{i}")
                     for i, v in enumerate(unit_raw)], dtype=complex)
    if unit.shape != (fibers.get(ring.unit, 0),):
        raise SchemaError(f"unit vector length {unit.shape[0]} != "
                          f"{fibers.get(ring.unit, 0)}", "/unit")
    side = raw.get("side", "cat")
    if side not in ("cat", "op"):
        raise SchemaError(f"side must be 'cat' or 'op', got {side!r}", "/side")
    return AlgebraObject(cat, fibers, mult, star, unit, side=side)


def aobj_to_json(D: AlgebraObject) -> dict:
    out = {
        "support": list(D.support),
        "fibers": {X: int(n) for X, n in D.fibers.items() if n},
        "mult": {f"{X},{Y};{Z};{v}":
                 [_matrix_out(plane) for plane in arr]
                 for (X, Y, Z, v), arr in sorted(D.mult.items())
                 if np.any(arr)},
        "star": {X: _matrix_out(m) for X, m in sorted(D.star.items())},
        "unit": [_complex_out(z) for z in D.unit],
    }
    if D.side != "cat":
        out["side"] = D.side
    return out


# -- states, covariance data, base algebras --------------------------------

def state_from_json(raw, dim: int) -> np.ndarray:
    """Coefficient vector over the 𝒟(1) basis."""
    if not isinstance(raw, list):
        raise SchemaError("state must be a coefficient vector", "/")
    vec = np.array([_complex_in(v, f"/{i}") for i, v in enumerate(raw)],
                   dtype=complex)
    if vec.shape != (dim,):
        raise SchemaError(f"state has {vec.shape[0]} coefficients, "
                          f"ground algebra has dimension {dim}", "/")
    return vec


def base_from_json(raw: dict) -> BaseAlgebra:
    """{"blocks": [int]} → ⊕_b M_{k_b}."""
    blocks = _require(raw, "blocks")
    if (not isinstance(blocks, list) or not blocks
            or not all(isinstance(k, int) and k > 0 for k in blocks)):
        raise SchemaError("blocks must be a nonempty list of positive ints",
                          "/blocks")
    return BaseAlgebra(tuple(blocks))


def eta_from_json(raw: dict, algebra: BaseAlgebra) -> CovarianceMatrix:
    """{"index": [ids], "entries": {"i,j": [[complex]]}} → covariance."""
    index = _require(raw, "index")
    if not isinstance(index, list) or not index:
        raise SchemaError("index must be a nonempty list of ids", "/index")
    ids = {str(i): i for i in index}
    if len(ids) != len(index):
        raise SchemaError("index ids must be distinct", "/index")
    entries = {}
    for key, rows in _require(raw, "entries").items():
        ptr = f"/entries/{key}"
        i, j = _split(key, (",",), 2, ptr)
        if i not in ids or j not in ids:
            raise SchemaError(f"entry key {key!r} outside the index", ptr)
        m = _matrix_in(rows, ptr)
        if m.shape != (algebra.dim, algebra.dim):
            raise SchemaError(f"entry shape {m.shape} != "
                              f"{(algebra.dim, algebra.dim)}", ptr)
        entries[(ids[i], ids[j])] = m
    bound = raw.get("bound")
    if bound is not None and not isinstance(bound, (int, float)):
        raise SchemaError("bound must be a real number", "/bound")
    return CovarianceMatrix(algebra, tuple(index), entries, bound=bound)
