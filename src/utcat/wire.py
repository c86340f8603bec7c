"""The JSON wire format of :mod:`utcat.io_schemas`: complex numbers,
vectors, matrices and block keys, read one at a time or in bulk.

A complex number is ``[re, im]`` or a bare real, both finite (the JSON
tokens NaN and Infinity and the booleans true and false are refused); a
vector is a list of them, a matrix a list of equally long row lists; a
block key is a comma/semicolon joined label string ("a,b,c;d", "a,b;c").
The bulk readers check a whole payload's numbers, matrices or keys with one
pass of C-level iteration and numpy and only decide whether it is well
formed; the single readers raise the :class:`SchemaError` of one item, and
a payload the bulk readers refuse is read again through the single readers
to name its first failure.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import SchemaError


def complex_out(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


_PAIR = (list, tuple)


def _reals(pairs: list):
    """The entries of ``pairs`` as one float array, or None unless each pair
    holds two finite reals (a bool is not one)."""
    flat = list(itertools.chain.from_iterable(pairs))
    if set(map(len, pairs)) - {2} or not set(map(type, flat)).isdisjoint((bool, np.bool_)):
        return None
    try:
        arr = np.array(flat)
    except (ValueError, TypeError, OverflowError):
        return None
    ok = arr.dtype.kind in "iuf" and arr.ndim == 1 and bool(np.isfinite(arr).all())
    return arr.astype(float, copy=False) if ok else None


def complex_array(values: list) -> tuple:
    """(``values`` as one complex array, None), or (None, the position of
    the first value that is not a finite real or an [re, im] pair of them)."""
    pairs = [v if v.__class__ in _PAIR else (v, 0) for v in values]
    arr = _reals(pairs)
    if arr is not None:  # a view keeps the signs of zeros
        return arr.view(complex), None
    return None, next(i for i, p in enumerate(pairs) if _reals([p]) is None)


def _entry_error(v, ptr: str) -> SchemaError:
    return SchemaError(f"expected a finite complex number as [re, im], got {v!r}", ptr)


def vector_in(values: list, ptr: str) -> np.ndarray:
    """The list ``values`` as a complex vector; entry i's pointer is ``ptr/i``."""
    vals, bad = complex_array(values)
    if bad is not None:
        raise _entry_error(values[bad], f"{ptr}/{bad}")
    return vals


def matrix_in(rows, ptr: str) -> np.ndarray:
    """``rows``, a list of equally long row lists, as a complex matrix."""
    if not isinstance(rows, list) or not all(map(isinstance, rows, itertools.repeat(list))):
        raise SchemaError("expected a matrix as a list of rows", ptr)
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise SchemaError("ragged matrix rows", ptr)
    width = widths.pop() if widths else 0
    flat = list(itertools.chain.from_iterable(rows))
    vals, bad = complex_array(flat)
    if bad is not None:
        raise _entry_error(flat[bad], f"{ptr}/{bad // width}/{bad % width}")
    return vals.reshape(len(rows), width)


def matrices(mats: list) -> tuple:
    """(shapes, entries row by row) of a list of matrices, or (None, None)
    unless each is a list of equally long row lists."""
    many = itertools.repeat(list)
    if not all(map(isinstance, mats, many)):
        return None, None
    nr = np.fromiter(map(len, mats), dtype=int, count=len(mats))
    rows = list(itertools.chain.from_iterable(mats))
    if not all(map(isinstance, rows, many)):
        return None, None
    width = np.fromiter(map(len, rows), dtype=int, count=len(rows))
    first = np.cumsum(nr) - nr  # the first row of each matrix
    if np.any(width != np.repeat(width[first[nr > 0]], nr[nr > 0])):
        return None, None
    shape = np.zeros((len(mats), 2), dtype=int)
    shape[:, 0] = nr
    shape[nr > 0, 1] = width[first[nr > 0]]
    return shape, list(itertools.chain.from_iterable(rows))


def key_positions(keys: list, seps: tuple, arity: int, index: dict):
    """The label positions of keys split as :func:`split` does, one row per
    key, or None unless each is ``arity`` known labels."""
    many = itertools.repeat
    for sep in seps[:-1]:
        keys = list(map(str.replace, keys, many(sep), many(seps[-1])))
    parts = list(map(str.split, keys, many(seps[-1])))
    if set(map(len, parts)) - {arity}:
        return None
    pos = np.fromiter(map(index.get, itertools.chain.from_iterable(parts), many(-1)),
                      dtype=int, count=len(parts) * arity).reshape(len(parts), arity)
    return None if np.any(pos < 0) else pos


def matrix_out(m) -> list:
    return [[complex_out(v) for v in row] for row in np.atleast_2d(m)]


def split(key: str, seps: tuple, arity: int, ptr: str) -> list:
    parts = key
    for sep in seps[:-1]:
        parts = parts.replace(sep, seps[-1])
    parts = parts.split(seps[-1])
    if len(parts) != arity:
        raise SchemaError(f"expected a {arity}-part key, got {key!r}", ptr)
    return parts


def check_key(index: dict, key: str, arity: int, ptr: str) -> list:
    """The labels of block key "a,b,c;d" or "a,b;c"; raise unless they are
    ``arity`` known labels."""
    parts = split(key, (";", ","), arity, ptr)
    for x in parts:
        if x not in index:
            raise SchemaError(f"unknown label {x!r}", ptr)
    return parts
