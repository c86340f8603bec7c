"""JSON (de)serialization for rings, categories, algebra objects, states, η.

Wire conventions: complex numbers are ``[re, im]`` pairs (a bare real is
read as ``[re, 0]``); composite keys are comma/semicolon joined label strings
("x,y", "a,b,c;d", "X,Y;Z;v").  Parsing failures raise :class:`SchemaError`
carrying a JSON-pointer-ish path.

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
import operator

import numpy as np

from .algebra_object import AlgebraObject
from .errors import SchemaError
from .fusion_ring import FusionRing, _join, validate_ring
from .semicircular import BaseAlgebra, CovarianceMatrix
from .skeletal import SkeletalUTC
from .wire import (check_key, complex_array, complex_in, complex_out, first_failure,
                   key_positions, matrices, matrix_in, matrix_out, rows_in, split)

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

    One pass over the payload splits the keys into label positions and
    gathers the sub-blocks and every number; keys, channel pairs, shapes and
    numbers are then checked as arrays.  The first failure in payload order
    is raised, else the sub-blocks are scattered into the buffer."""
    index, N, t = ring.index, ring._N, ring.ftable
    keys, blocks = list(fraw), list(fraw.values())
    pos, k = key_positions(keys, 4, index)
    many = itertools.repeat
    obj = np.fromiter(map(isinstance, blocks[:k], many(dict)), dtype=bool, count=k)
    k = k if obj.all() else int(np.argmax(~obj))
    pos, blocks = pos[:k], blocks[:k]
    nsub = np.fromiter(map(len, blocks), dtype=int, count=k)
    owner = np.repeat(np.arange(k), nsub)
    pairs = list(itertools.chain.from_iterable(blocks))
    shape, s, flat = matrices(list(itertools.chain.from_iterable(map(dict.values, blocks))))
    # channel pairs "e,f": two known labels with a nonzero sub-block
    two = np.fromiter(map(str.count, pairs, many(",")), dtype=int, count=len(pairs)) == 1
    ef = list(map(str.partition, pairs, many(",")))
    e, f = (np.fromiter(map(index.get, map(operator.itemgetter(i), ef), many(-1)),
                        dtype=int, count=len(ef)) for i in (0, 2))
    a, b, c, d = pos[owner].T
    want = np.column_stack([N[a, b, e] * N[e, c, d], N[b, c, f] * N[a, f, d]])
    allowed = two & (e >= 0) & (f >= 0) & np.all(want > 0, axis=1)
    s = min(s, int(np.argmax(~allowed)) if not allowed.all() else s)

    def where(i):
        return f"/F/{keys[owner[i]]}/{pairs[i]}"

    flat = flat[:int(np.sum(shape[:s, 0] * shape[:s, 1]))]
    vals, bad = complex_array(flat)
    failure = first_failure(where, flat, bad, shape[:s], want[:s], "submatrix")
    if failure:
        raise failure
    if s < len(pairs):  # the channel pair or the matrix of sub-block s
        e, f = split(pairs[s], (",",), 2, where(s))
        if not allowed[s]:
            raise SchemaError(f"channel pair ({e},{f}) not allowed here", where(s))
        rows_in(fraw[keys[owner[s]]][pairs[s]], where(s), [])
    if k < len(keys):
        check_key(index, keys[k], 4, f"/F/{keys[k]}")
        raise SchemaError("F block must be an object keyed by 'e,f'", f"/F/{keys[k]}")
    blk = t.number[tuple(pos[owner].T)]
    corner = np.column_stack([t.chan[blk, 0, e], t.chan[blk, 1, f]])
    return _scatter(t, blk, shape, corner, vals), _given(t, pos)


def _r_in(ring: FusionRing, rraw: dict) -> tuple:
    """The flat R buffer of ``ring.rtable`` and the mask of the blocks given,
    parsed as :func:`_f_in` does."""
    t = ring.rtable
    keys = list(rraw)
    pos, k = key_positions(keys, 3, ring.index)
    shape, s, flat = matrices(list(rraw.values())[:k])
    n = ring._N[tuple(pos.T)]
    vals, bad = complex_array(flat)
    failure = first_failure(lambda i: f"/R/{keys[i]}", flat, bad, shape[:s],
                             np.column_stack([n, n])[:s], "R block")
    if failure:
        raise failure
    if s < k:
        rows_in(rraw[keys[s]], f"/R/{keys[s]}", [])
    if k < len(keys):
        check_key(ring.index, keys[k], 3, f"/R/{keys[k]}")
    blk = t.number[tuple(pos[n > 0].T)]
    return (_scatter(t, blk, shape[n > 0], np.zeros((len(blk), 2), dtype=int), vals),
            _given(t, pos))


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
        # channel runs of each side: (block, channel, first slot, length)
        blk = np.repeat(np.arange(len(t.size)), t.size)
        runs = []
        for side in (t.left, t.right):
            first = np.flatnonzero(np.diff(blk * len(lab) + side[:, 0], prepend=-1))
            runs.append((blk[first], side[first, 0], first - t.start[blk[first]],
                         np.diff(first, append=len(blk))))
        i, j = _join(runs[0][0], runs[1][0])
        k, e, f = runs[0][0][i], runs[0][1][i], runs[1][1][j]
        corner = np.column_stack([runs[0][2][i], runs[1][2][j]])
        shape = np.column_stack([runs[0][3][i], runs[1][3][j]])
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
    unit = np.array([complex_in(v, f"/unit/{i}")
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
    vec = np.array([complex_in(v, f"/{i}") for i, v in enumerate(raw)],
                   dtype=complex)
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
    if len(pos) != len(index):
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
