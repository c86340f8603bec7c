"""JSON (de)serialization for rings, categories, algebra objects, states, η.

Wire conventions: complex numbers are ``[re, im]`` pairs (a bare real is
read as ``[re, 0]``); composite keys are comma/semicolon joined label strings
("x,y", "a,b,c;d", "X,Y;Z;v").  Parsing failures raise :class:`SchemaError`
carrying a JSON-pointer-ish path.  The F and R readers check a payload in
bulk, which only decides whether it is accepted; a refused one is read again
by a walk in payload order that raises its first failure.

Skeletal categories: ``F`` maps every key "a,b,c;d" whose block is nonzero
and has no unit among a, b, c to an object of its nonzero channel
sub-blocks, "e,f" → the rows (e, α, β) × columns (f, μ, ν) of F[a,b,c;d];
sub-blocks left out are zero.  ``R`` maps "a,b;c" to the N_ab^c × N_ab^c
R-matrix for every nonzero block with a, b ≠ 1.  Blocks with a unit leg are
the identity (strict unitors): they may be left out, and one given must be
the identity, or the payload is refused.  A category carries no dimensions:
they are read off F (:meth:`SkeletalUTC.d`), and keys other than the ring's,
F and R are ignored.
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra_object import AlgebraObject
from .errors import SchemaError
from .fusion_ring import FusionRing, validate_ring
from .semicircular import BaseAlgebra, CovarianceMatrix
from .skeletal import SkeletalUTC
from .wire import (check_key, complex_array, complex_out, key_positions, matrices,
                   matrix_in, matrix_out, split, vector_in)

__all__ = [
    "aobj_from_json", "aobj_to_json", "base_from_json", "cat_from_json",
    "cat_to_json", "eta_from_json", "ring_from_json", "ring_to_json",
    "state_from_json",
]


def _require(raw: dict, key: str, ptr: str = ""):
    if not isinstance(raw, dict):
        raise SchemaError("expected a JSON object", ptr or "/")
    if key not in raw:
        raise SchemaError(f"missing required key {key!r}", f"{ptr}/{key}")
    return raw[key]


def _object(raw: dict, key: str, message: str) -> dict:
    """The JSON object under required ``key``; ``message`` if it is not one."""
    value = _require(raw, key)
    if not isinstance(value, dict):
        raise SchemaError(message, f"/{key}")
    return value


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
        x, y = split(key, (",",), 2, f"/fusion/{key}")
        if not isinstance(channels, dict):
            raise SchemaError("fusion entry must map channels to counts",
                              f"/fusion/{key}")
        for z, m in channels.items():
            if type(m) is not int:  # isinstance(True, int) holds
                raise SchemaError(f"fusion count must be an integer, got {m!r}",
                                  f"/fusion/{key}/{z}")
            mult[(x, y, z)] = m
    return validate_ring({"labels": labels, "unit": unit, "dual": dual,
                          "mult": mult})


def ring_to_json(ring: FusionRing) -> dict:
    fusion = {f"{x},{y}": ring.fuse(x, y) for x in ring.labels for y in ring.labels
              if ring.channels(x, y)}
    return {"labels": list(ring.labels), "unit": ring.unit,
            "dual": dict(ring.dual), "fusion": fusion}


# -- skeletal categories --------------------------------------------------

def _scatter(t, k: np.ndarray, shape: np.ndarray, corner: np.ndarray, vals: np.ndarray):
    """The flat buffer of table ``t`` holding the matrices of entries ``vals``
    at their places (see :meth:`BlockTable.positions`), zero elsewhere."""
    buf = np.zeros(t.buffer_length, dtype=complex)
    buf[t.positions(k, shape, corner)] = vals
    return buf


def _given(t, keys: np.ndarray) -> np.ndarray:
    """The mask of the blocks of ``t`` whose key (label positions) is among ``keys``."""
    k = t.number[tuple(keys.T)]
    given = np.zeros(len(t.size), dtype=bool)
    given[k[k >= 0]] = True
    return given


def _f_in(ring: FusionRing, fraw: dict) -> tuple:
    """The flat F buffer of ``ring.ftable`` and the mask of the blocks given.

    One pass over the payload splits the keys and channel pairs into label
    positions and gathers the sub-blocks and every number; keys, channel
    pairs, shapes and numbers are then checked as arrays, and the sub-blocks
    of a payload that passes are scattered into the buffer.  A payload that
    fails is read again by :func:`_f_failure`, which names its failure."""
    index, N, t = ring.index, ring._N, ring.ftable
    blocks = list(fraw.values())
    pos = key_positions(list(fraw), (";", ","), 4, index)
    if pos is not None and all(map(isinstance, blocks, itertools.repeat(dict))):
        nsub = np.fromiter(map(len, blocks), dtype=int, count=len(blocks))
        ef = key_positions(list(itertools.chain.from_iterable(blocks)), (",",), 2, index)
        shape, flat = matrices(list(itertools.chain.from_iterable(map(dict.values, blocks))))
        if ef is not None and shape is not None:
            (a, b, c, d), (e, f) = pos[np.repeat(np.arange(len(blocks)), nsub)].T, ef.T
            want = np.column_stack([N[a, b, e] * N[e, c, d], N[b, c, f] * N[a, f, d]])
            vals, bad = complex_array(flat)
            if bad is None and want.all() and np.array_equal(shape, want):
                blk = t.number[a, b, c, d]
                corner = np.column_stack([t.chan[blk, 0, e], t.chan[blk, 1, f]])
                return _scatter(t, blk, shape, corner, vals), _given(t, pos)
    _f_failure(ring, fraw)


def _f_failure(ring: FusionRing, fraw: dict) -> None:
    """Raise the first failure of an F payload in payload order: a key, its
    block, then each sub-block's channel pair, entries and shape."""
    for key, block in fraw.items():
        ptr = f"/F/{key}"
        a, b, c, d = check_key(ring.index, key, 4, ptr)
        if not isinstance(block, dict):
            raise SchemaError("F block must be an object keyed by 'e,f'", ptr)
        for pair, rows in block.items():
            where = f"{ptr}/{pair}"
            e, f = split(pair, (",",), 2, where)
            want = (0, 0)
            if e in ring.index and f in ring.index:
                want = (ring.N(a, b, e) * ring.N(e, c, d), ring.N(b, c, f) * ring.N(a, f, d))
            if 0 in want:
                raise SchemaError(f"channel pair ({e},{f}) not allowed here", where)
            m = matrix_in(rows, where)
            if m.shape != want:
                raise SchemaError(f"submatrix shape {m.shape} != {want}", where)


def _r_in(ring: FusionRing, rraw: dict) -> tuple:
    """The flat R buffer of ``ring.rtable`` and the mask of the blocks given,
    parsed as :func:`_f_in` does; :func:`_r_failure` names a failure."""
    t = ring.rtable
    pos = key_positions(list(rraw), (";", ","), 3, ring.index)
    shape, flat = matrices(list(rraw.values()))
    if pos is not None and shape is not None:
        n = ring._N[tuple(pos.T)]
        vals, bad = complex_array(flat)
        if bad is None and np.array_equal(shape, np.column_stack([n, n])):
            blk = t.number[tuple(pos[n > 0].T)]
            return (_scatter(t, blk, shape[n > 0], np.zeros((len(blk), 2), dtype=int), vals),
                    _given(t, pos))
    _r_failure(ring, rraw)


def _r_failure(ring: FusionRing, rraw: dict) -> None:
    """Raise the first failure of an R payload in payload order: a key, then
    its block's entries and shape."""
    for key, rows in rraw.items():
        ptr = f"/R/{key}"
        n = ring.N(*check_key(ring.index, key, 3, ptr))
        m = matrix_in(rows, ptr)
        if m.shape != (n, n):
            raise SchemaError(f"R block shape {m.shape} != {(n, n)}", ptr)


def cat_from_json(raw: dict) -> SkeletalUTC:
    """Ring schema extended with F and R (optional); any other key is ignored."""
    ring = ring_from_json(raw)
    fraw = _require(raw, "F")
    if not isinstance(fraw, dict):
        raise SchemaError("F must be an object keyed by 'a,b,c;d'", "/F")
    F, fgiven = _f_in(ring, fraw)
    R = rgiven = None
    if "R" in raw:
        if not isinstance(raw["R"], dict):
            raise SchemaError("R must be an object keyed by 'a,b;c'", "/R")
        R, rgiven = _r_in(ring, raw["R"])

    return SkeletalUTC(ring, F, R, (fgiven, rgiven))


def _blocks_out(ring: FusionRing, kind: str, buf: np.ndarray) -> dict:
    """The ``kind`` ("F" or "R") object of a category's flat buffer: every
    block without a unit leg, F by its nonzero channel sub-blocks."""
    t, lab = ring.ftable if kind == "F" else ring.rtable, ring.labels
    if kind == "F":
        # channel sub-blocks: a channel's slot count is the gap to the next start
        count = np.diff(t.chan, axis=2, append=t.size[:, None, None].repeat(2, axis=1))
        k, e, f = np.nonzero(count[:, 0, :, None] * count[:, 1, None, :])
        corner = np.column_stack([t.chan[k, 0, e], t.chan[k, 1, f]])
        shape = np.column_stack([count[k, 0, e], count[k, 1, f]])
    else:
        k = np.arange(len(t.size))
        corner, shape = np.zeros((len(k), 2), dtype=int), np.column_stack([t.size, t.size])
    vals = buf[t.positions(k, shape, corner)]
    start = np.cumsum(shape[:, 0] * shape[:, 1]) - shape[:, 0] * shape[:, 1]
    nonzero = np.logical_or.reduceat(vals != 0, start) if len(vals) else []
    pairs = np.column_stack([vals.real, vals.imag]).tolist()
    name = [",".join(lab[x] for x in key[:-1]) + ";" + lab[key[-1]] for key in t.keys.tolist()]
    out = {name[b]: {} for b in np.flatnonzero(~t.unit_leg).tolist()}
    for sub, (b, (r, c), lo) in enumerate(zip(k.tolist(), shape.tolist(), start.tolist())):
        if t.unit_leg[b] or (kind == "F" and not nonzero[sub]):
            continue
        rows = [pairs[p:p + c] for p in range(lo, lo + r * c, c)]
        if kind == "R":
            out[name[b]] = rows
        else:
            out[name[b]][f"{lab[e[sub]]},{lab[f[sub]]}"] = rows
    return out


def cat_to_json(cat: SkeletalUTC) -> dict:
    out = ring_to_json(cat.ring)
    out["F"] = _blocks_out(cat.ring, "F", cat._F)
    if cat.braided:
        out["R"] = _blocks_out(cat.ring, "R", cat._R)
    return out


# -- algebra objects -------------------------------------------------------

def aobj_from_json(cat: SkeletalUTC, raw: dict) -> AlgebraObject:
    """{support, fibers, mult: {"X,Y;Z;v": [[[complex]]]}, star, unit}."""
    ring = cat.ring
    support = _require(raw, "support")
    if not isinstance(support, list) or not all(isinstance(x, str) for x in support):
        raise SchemaError("support must be a list of labels", "/support")
    fibers_raw = _object(raw, "fibers", "fibers must map labels to dimensions")
    fibers = {}
    for X, n in fibers_raw.items():
        if X not in ring.labels:
            raise SchemaError(f"unknown label {X!r}", f"/fibers/{X}")
        if type(n) is not int or n < 0:
            raise SchemaError(f"fiber dimension must be a non-negative int",
                              f"/fibers/{X}")
        fibers[X] = n
    if sorted(support) != sorted(X for X, n in fibers.items() if n):
        raise SchemaError("support does not match the nonzero fibers",
                          "/support")

    def dim(X, ptr):
        if X not in ring.labels:
            raise SchemaError(f"unknown label {X!r}", ptr)
        return fibers.get(X, 0)

    mult = {}
    for key, arr in _object(raw, "mult", "mult must be an object keyed by 'X,Y;Z;v'").items():
        ptr = f"/mult/{key}"
        X, Y, Z, v = split(key, (";", ","), 4, ptr)
        try:
            v = int(v)
        except ValueError:
            raise SchemaError(f"multiplicity index must be an int, got {v!r}",
                              ptr)
        want = (dim(Z, ptr), dim(X, ptr), dim(Y, ptr))
        if not 0 <= v < ring.N(X, Y, Z):
            raise SchemaError(f"multiplicity index {v} out of range", ptr)
        if not isinstance(arr, list):
            raise SchemaError("expected a rank-3 coefficient array", ptr)
        planes = [matrix_in(mat, f"{ptr}/{i}") for i, mat in enumerate(arr)]
        if len(planes) != want[0]:
            raise SchemaError(f"tensor has {len(planes)} planes, expected {want[0]}", ptr)
        for i, m in enumerate(planes):
            if m.shape != want[1:]:
                raise SchemaError(f"tensor plane shape {m.shape} != {want[1:]}", f"{ptr}/{i}")
        stack = mult.setdefault((X, Y, Z), np.zeros((ring.N(X, Y, Z),) + want, complex))
        stack[v] = np.reshape(planes, want)

    star = {}
    for X, rows in _object(raw, "star", "star must map labels to matrices").items():
        ptr = f"/star/{X}"
        m = matrix_in(rows, ptr)
        n = dim(X, ptr)
        want = (fibers.get(cat.dual(X), 0), n)
        if m.shape != want:
            raise SchemaError(f"star matrix shape {m.shape} != {want}", ptr)
        star[X] = m

    unit_raw = _require(raw, "unit")
    if not isinstance(unit_raw, list):
        raise SchemaError("unit must be a coefficient vector", "/unit")
    unit = vector_in(unit_raw, "/unit")
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
        "mult": {f"{X},{Y};{Z};{v}": [matrix_out(plane) for plane in planes]
                 for (X, Y, Z), stack in sorted(D.mult.items())
                 for v, planes in enumerate(stack) if np.any(planes)},
        "star": {X: matrix_out(m) for X, m in sorted(D.star.items())},
        "unit": [complex_out(z) for z in D.unit],
    }
    if D.side != "cat":
        out["side"] = D.side
    return out


# -- states, covariance data, base algebras --------------------------------

def state_from_json(raw, dim: int) -> np.ndarray:
    """Coefficient vector over the 𝒟(1) basis."""
    if not isinstance(raw, list):
        raise SchemaError("state must be a coefficient vector", "/")
    vec = vector_in(raw, "")
    if vec.shape != (dim,):
        raise SchemaError(f"state has {vec.shape[0]} coefficients, "
                          f"ground algebra has dimension {dim}", "/")
    return vec


def base_from_json(raw: dict) -> BaseAlgebra:
    """{"blocks": [int]} → ⊕_b M_{k_b}."""
    blocks = _require(raw, "blocks")
    if (not isinstance(blocks, list) or not blocks
            or not all(type(k) is int and k > 0 for k in blocks)):
        raise SchemaError("blocks must be a nonempty list of positive ints",
                          "/blocks")
    return BaseAlgebra(tuple(blocks))


def eta_from_json(raw: dict, algebra: BaseAlgebra) -> CovarianceMatrix:
    """{"index": [ids], "entries": {"i,j": [[complex]]}} → covariance, each
    entry scattered into the stack at the positions of its ids."""
    index = _require(raw, "index")
    if not isinstance(index, list) or not index:
        raise SchemaError("index must be a nonempty list of ids", "/index")
    pos = {str(i): x for x, i in enumerate(index)}
    # distinct as entry keys name them and as the constructor compares them (true == 1)
    if len(pos) != len(index) or any(index.index(i) != x for x, i in enumerate(index)):
        raise SchemaError("index ids must be distinct", "/index")
    stack = np.zeros((len(index),) * 2 + (algebra.dim,) * 2, dtype=complex)
    for key, rows in _object(raw, "entries", "entries must be an object keyed by 'i,j'").items():
        ptr = f"/entries/{key}"
        i, j = split(key, (",",), 2, ptr)
        if i not in pos or j not in pos:
            raise SchemaError(f"entry key {key!r} outside the index", ptr)
        m = matrix_in(rows, ptr)
        if m.shape != stack.shape[2:]:
            raise SchemaError(f"entry shape {m.shape} != {stack.shape[2:]}", ptr)
        stack[pos[i], pos[j]] = m
    return CovarianceMatrix(algebra, tuple(index), stack)
