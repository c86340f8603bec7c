"""The JSON wire format of :mod:`utcat.io_schemas`: complex numbers,
matrices and block keys, read one at a time or in bulk.

A complex number is ``[re, im]`` or a bare real, both finite (the JSON
tokens NaN and Infinity are refused); a matrix is a list of
equally long row lists; a block key is a comma/semicolon joined label string
("a,b,c;d", "a,b;c").  The bulk readers check a whole payload's numbers,
matrices or keys with one pass of C-level iteration and numpy, and report
the first failure in payload order; the single readers raise the same
:class:`SchemaError` for one item and serve as the diagnosis of that failure.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import SchemaError


def complex_in(v, ptr: str) -> complex:
    if _is_complex(v if v.__class__ in _PAIR else (v, 0)):
        return complex(*v) if v.__class__ in _PAIR else complex(v)
    raise _entry_error(v, ptr)


def complex_out(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


_PAIR = (list, tuple)


def rows_in(rows, ptr: str, flat: list) -> tuple[int, int]:
    """Check that ``rows`` is a list of equally long lists, append its
    entries to ``flat`` and return its shape."""
    if not isinstance(rows, list) or not all(map(isinstance, rows, itertools.repeat(list))):
        raise SchemaError("expected a matrix as a list of rows", ptr)
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise SchemaError("ragged matrix rows", ptr)
    flat.extend(itertools.chain.from_iterable(rows))
    return len(rows), widths.pop() if widths else 0


def _is_complex(pair) -> bool:
    try:
        v = np.array(pair)
    except (ValueError, TypeError, OverflowError):
        return False
    return v.shape == (2,) and v.dtype.kind in "biuf" and bool(np.isfinite(v).all())


def complex_array(values: list) -> tuple:
    """(``values`` as one complex array, None), or (None, the position of
    the first value that is not a finite real or an [re, im] pair of them)."""
    pairs = [v if v.__class__ in _PAIR else (v, 0) for v in values]
    try:
        arr = np.array(list(itertools.chain.from_iterable(pairs)))
        ok = (arr.dtype.kind in "biuf" and arr.shape == (2 * len(pairs),)
              and set(map(len, pairs)) <= {2} and bool(np.isfinite(arr).all()))
    except (ValueError, TypeError, OverflowError):
        ok = False
    if ok:  # a view keeps the signs of zeros
        return arr.astype(float, copy=False).view(complex), None
    # each value passes alone unless integers overflow only together; then blame the first
    return None, next((i for i, p in enumerate(pairs) if not _is_complex(p)), 0)


def _entry_error(v, ptr: str) -> SchemaError:
    return SchemaError(f"expected a finite complex number as [re, im], got {v!r}", ptr)


def matrix_in(rows, ptr: str) -> np.ndarray:
    flat = []
    shape = rows_in(rows, ptr, flat)
    vals, bad = complex_array(flat)
    if bad is not None:
        raise _entry_error(flat[bad], f"{ptr}/{bad // shape[1]}/{bad % shape[1]}")
    return vals.reshape(shape)


def matrices(mats: list) -> tuple:
    """(shapes, s, entries) of a list of matrices, each a list of equally
    long row lists: ``s`` is the position of the first that is not one
    (``len(mats)`` if none), and ``entries`` lists those of the matrices
    before it, row by row.  Matrix s is diagnosed by :func:`rows_in`."""
    S, many = len(mats), itertools.repeat(list)
    ok = np.fromiter(map(isinstance, mats, many), dtype=bool, count=S)
    lists = list(itertools.compress(mats, ok))
    nr = np.zeros(S, dtype=int)
    nr[ok] = np.fromiter(map(len, lists), dtype=int, count=len(lists))
    rows = list(itertools.chain.from_iterable(lists))
    row_ok = np.fromiter(map(isinstance, rows, many), dtype=bool, count=len(rows))
    width = np.zeros(len(rows), dtype=int)
    width[row_ok] = np.fromiter(map(len, itertools.compress(rows, row_ok)), dtype=int,
                                count=int(row_ok.sum()))
    begin, owner = np.cumsum(nr) - nr, np.repeat(np.arange(S), nr)  # rows by matrix
    bad = ~ok
    bad[owner[~row_ok | (width != width[begin[owner]])]] = True
    s = int(np.argmax(bad)) if bad.any() else S
    shape = np.zeros((S, 2), dtype=int)
    shape[:, 0] = nr
    shape[nr > 0, 1] = width[begin[nr > 0]]
    return shape, s, list(itertools.chain.from_iterable(rows[:int(nr[:s].sum())]))


def key_positions(keys: list, arity: int, index: dict) -> tuple:
    """(label positions, k) of block keys "a,b,c;d" or "a,b;c": ``k`` is the
    position of the first key that is not ``arity`` known labels
    (``len(keys)`` if none), and the positions are those of the keys before it."""
    many = itertools.repeat
    parts = list(map(str.split, map(str.replace, keys, many(";"), many(",")), many(",")))
    n = np.fromiter(map(len, parts), dtype=int, count=len(parts))
    k = int(np.argmax(n != arity)) if np.any(n != arity) else len(parts)
    pos = np.fromiter(map(index.get, itertools.chain.from_iterable(parts[:k]), many(-1)),
                      dtype=int, count=k * arity).reshape(k, arity)
    unknown = np.flatnonzero((pos < 0).any(axis=1))
    k = int(unknown[0]) if len(unknown) else k
    return pos[:k], k


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


def check_key(index: dict, key: str, arity: int, ptr: str) -> None:
    """Raise unless ``key`` is a block key "a,b,c;d" or "a,b;c" of known labels."""
    for x in split(key, (";", ","), arity, ptr):
        if x not in index:
            raise SchemaError(f"unknown label {x!r}", ptr)


def first_failure(where, flat: list, bad, shape, want, label: str):
    """The error of the first matrix (in payload order; ``where(s)`` is the
    JSON pointer of matrix s) whose entries, gathered in ``flat`` by shapes
    ``shape``, hold a value that is not a complex number (the first at
    position ``bad``), or whose shape is not ``want``; None if none is."""
    out = []
    if bad is not None:
        end = np.cumsum(shape[:, 0] * shape[:, 1])
        s = int(np.searchsorted(end, bad, "right"))
        m, width = bad - int(end[s]) + int(shape[s].prod()), int(shape[s, 1])
        out.append((s, _entry_error(flat[bad], f"{where(s)}/{m // width}/{m % width}")))
    wrong = np.flatnonzero(np.any(shape != want, axis=1))
    if len(wrong):
        s = int(wrong[0])
        got, exp = tuple(shape[s].tolist()), tuple(want[s].tolist())
        out.append((s, SchemaError(f"{label} shape {got} != {exp}", where(s))))
    return min(out, key=lambda o: o[0])[1] if out else None
