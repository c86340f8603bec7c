"""The label-keyed block readers of a category (``skeletal._block`` on the F,
F⁻¹ and R buffers, through the reference ``fmat``, ``finv`` and ``rmat``,
and ``conj_pair_matrix`` and ``fblock``) against the flat buffers they read:
every entry of every block in its place, the
channel sub-blocks of ``fblock`` tiling ``fmat``, zero blocks and zero
channel pairs, unknown labels, and Σ_{f,μ,ν} F·F* = 1 read through
``fblock`` on unitary data."""

import itertools

import numpy as np
import pytest

import index_reference as ref
from utcat.errors import UnknownLabel
from utcat.fixtures import FIXTURE_BUILDERS, fibonacci, mult2_ring, random_blocks, su2k

CASES = {
    **FIXTURE_BUILDERS,
    **{f"su2_{k}": (lambda k=k: su2k(k)) for k in range(6, 9)},
    **{f"mult2_random{seed}": (lambda s=seed: random_blocks(mult2_ring(), s)) for seed in (0, 1)},
}
UNITARY = sorted(name for name in CASES if not name.startswith("mult2_random"))


@pytest.fixture(scope="module", params=sorted(CASES))
def cat(request):
    return CASES[request.param]()


def _readers(cat):
    """(reader, table, buffer) of every label-keyed block reader."""
    ring = cat.ring
    return [(lambda *key: ref.fmat(cat, *key), ring.ftable, cat._F),
            (lambda *key: ref.finv(cat, *key), ring.ftable, cat._inverses()),
            (lambda *key: ref.rmat(cat, *key), ring.rtable, cat._R),
            (cat.conj_pair_matrix, ring.rtable, cat._conj_pairs)]


def test_every_block_sits_at_its_buffer_entries(cat):
    lab = cat.ring.labels
    for read, t, buf in _readers(cat):
        blocks = [read(*(lab[x] for x in key)) for key in t.keys]
        assert all(M.shape == (n, n) and np.shares_memory(M, buf)
                   for M, n in zip(blocks, t.size))
        blk, p, q = t.entry_index()  # (block, row, column) of each buffer entry
        got = np.array([blocks[k][i, j] for k, i, j in zip(blk, p, q)])
        assert np.array_equal(got, buf)
        width = t.keys.shape[1]
        for key in itertools.product(range(len(lab)), repeat=width):
            if t.number[key] < 0:
                assert read(*(lab[x] for x in key)).shape == (0, 0)


def test_fblock_channel_pairs_tile_fmat(cat):
    ring, lab = cat.ring, cat.ring.labels
    for a, b, c, d in (tuple(lab[x] for x in key) for key in ring.ftable.keys):
        rows = []
        for e in lab:
            row = []
            for f in lab:
                shape = (ring.N(a, b, e), ring.N(e, c, d), ring.N(b, c, f), ring.N(a, f, d))
                T = cat.fblock(a, b, c, d, e, f)
                assert T.shape == shape
                if 0 in shape:
                    assert T.dtype == complex and not T.any()
                row.append(T.reshape(shape[0] * shape[1], shape[2] * shape[3]))
            rows.append(np.concatenate(row, axis=1))
        assert np.array_equal(np.concatenate(rows), ref.fmat(cat, a, b, c, d))


@pytest.mark.parametrize("name", UNITARY)
def test_fblocks_resolve_the_identity_on_unitary_data(name):
    # Σ_{f,μ,ν} F[(e,α,β),(f,μ,ν)]·conj(F[(e',α',β'),(f,μ,ν)]) = δ, each
    # F column cut at its right channel f, its rows stacked over e
    cat = CASES[name]()
    ring, lab = cat.ring, cat.ring.labels
    worst = 0.0
    for a, b, c, d in (tuple(lab[x] for x in key) for key in ring.ftable.keys):
        total = 0.0
        for f in lab:
            cols = [cat.fblock(a, b, c, d, e, f) for e in lab]
            C = np.concatenate([T.reshape(T.shape[0] * T.shape[1], T.shape[2] * T.shape[3])
                                for T in cols])
            total = total + C @ C.conj().T
        worst = max(worst, float(np.max(np.abs(total - np.eye(len(total))))))
    assert worst <= 1e-12


def test_every_reader_refuses_an_unknown_label():
    cat = fibonacci()
    readers = [(lambda *key: ref.fmat(cat, *key), 4), (lambda *key: ref.rmat(cat, *key), 3),
               (cat.conj_pair_matrix, 3), (cat.fblock, 6), (lambda *key: ref.finv(cat, *key), 4)]
    for read, width in readers:
        for i in range(width):
            key = ["tau"] * width
            key[i] = "nope"
            with pytest.raises(UnknownLabel, match="nope"):
                read(*key)
