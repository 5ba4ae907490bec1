"""The block-local ``linalg.induced_map_on_homology`` against the whole mapping cone.

``level_oracle.induced_rank_by_cone`` ranks the whole cone of a chain map
and reads rank f_* off dim H(cone f) = dim H(source) + dim H(target) -
2 rank f_*.  ``induced_map_on_homology`` eliminates only the blocks where
its targets' homology lives.  On generated block-graded chain maps into
one target or into a direct sum of two, both must give the same rank,
and on a map that is not a chain map both must raise naming the same
witness.  The generated maps include zero maps, quasi-isomorphisms and
targets whose homology sits in several blocks.
"""
import random

import pytest
from hypothesis import given, settings, strategies as st

from knotsurgery import linalg
from knotsurgery.linalg import LinearAlgebraError
import level_oracle

BLOCKS = [(a, z) for a in range(0, 8, 2) for z in (0, 1)]


def _up(block):
    a, z = block
    return a + 2, 1 - z


def _add(col: dict, key, c):
    if x := col.get(key, 0) + c:
        col[key] = x
    else:
        col.pop(key, None)


def _standard(rng, lone: list, pairs: int) -> tuple:
    """A complex of lone generators at the given blocks and acyclic pairs x -> c y.

    Returns (columns, {key: block}, keys of the lone generators).
    """
    cols, block_of, survivors = {}, {}, []
    for block in lone:
        key = len(cols)
        cols[key], block_of[key] = {}, block
        survivors.append(key)
    for _ in range(pairs):
        block = rng.choice(BLOCKS[:-2])
        x, y = len(cols), len(cols) + 1
        cols[x], cols[y] = {y: rng.choice((-2, -1, 1, 3))}, {}
        block_of[x], block_of[y] = block, _up(block)
    return cols, block_of, survivors


def _compose(outer: dict, inner: dict, keys) -> dict:
    """The columns of outer o inner on the given source keys."""
    return {key: linalg.apply(outer, inner[key]) for key in keys}


def _conjugate(rng, cols: dict, block_of: dict, maps_in: list, maps_out: list, moves: int):
    """Change basis by random elementary moves inside the blocks, in place.

    The move e_j -> e_j + c e_i (i, j in one block) changes coordinates by
    T = I - c e_ij: cols becomes T cols T^-1, each map into the complex
    T f, and each map out of it f T^-1.
    """
    keys = list(cols)
    for _ in range(moves if keys else 0):
        i = rng.choice(keys)
        same = [j for j in keys if j != i and block_of[j] == block_of[i]]
        if not same:
            continue
        j, c = rng.choice(same), rng.choice((-2, -1, 1, 2))
        # T^-1 = I + c e_ij on the right: column j gains c times column i
        for m in [cols] + maps_out:
            for key, v in list(m[i].items()):
                _add(m[j], key, c * v)
        # T = I - c e_ij on the left: coordinate i loses c times coordinate j
        for m in [cols] + maps_in:
            for col in m.values():
                if j in col:
                    _add(col, i, -c * col[j])


@st.composite
def chain_maps(draw):
    """(kind, d_src, src_block_of, [[f, d_tgt, tgt_block_of]]) with each f a chain map."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    kind = draw(st.sampled_from(("random", "zero", "quasi-isomorphism", "spread")))
    lone = [rng.choice(BLOCKS) for _ in range(rng.randrange(0, 4))]
    d_src, src_of, src_lone = _standard(rng, lone, rng.randrange(0, 4))
    targets = []
    for _ in range(draw(st.integers(1, 2))):
        if kind == "quasi-isomorphism":
            tgt_lone = lone
        elif kind == "spread":  # homology in at least two blocks
            tgt_lone = rng.sample(BLOCKS, rng.randrange(2, 4))
        else:
            tgt_lone = [rng.choice(BLOCKS) for _ in range(rng.randrange(0, 4))]
        d_tgt, tgt_of, tgt_lone_keys = _standard(
            rng, tgt_lone, 0 if kind == "quasi-isomorphism" else rng.randrange(0, 4))
        f = {key: {} for key in d_src}
        if kind == "quasi-isomorphism":
            for x, y in zip(src_lone, tgt_lone_keys):
                f[x][y] = rng.choice((-1, 1))
        elif kind != "zero":
            for x in src_lone:
                for y in tgt_lone_keys:
                    if src_of[x] == tgt_of[y] and rng.random() < 0.7:
                        f[x][y] = rng.randrange(-3, 4) or 1
            # plus a null-homotopic part d_tgt h + h d_src, h lowering the block by 2
            h = {x: {y: rng.randrange(-2, 3) or 1 for y in d_tgt
                     if _up(tgt_of[y]) == src_of[x] and rng.random() < 0.5} for x in d_src}
            for part in (_compose(d_tgt, h, d_src), _compose(h, d_src, d_src)):
                for x, col in part.items():
                    for y, c in col.items():
                        _add(f[x], y, c)
        _conjugate(rng, d_tgt, tgt_of, [f], [], rng.randrange(0, 10))
        targets.append([f, d_tgt, tgt_of])
    _conjugate(rng, d_src, src_of, [], [f for f, _, _ in targets], rng.randrange(0, 10))
    return kind, d_src, src_of, targets


def _block_index(block_of: dict) -> dict:
    blocks = {}
    for key, block in block_of.items():
        blocks.setdefault(block, []).append(key)
    return blocks


def _homology_dim(cols: dict, blocks: dict) -> dict:
    sizes = {block: len(keys) for block, keys in blocks.items()}
    return linalg.homology(sizes, linalg.block_ranks(cols, blocks), 2)


def _block_local(d_src, src_of, targets):
    src_blocks = _block_index(src_of)
    parts = []
    for f, d_tgt, tgt_of in targets:
        tgt_blocks = _block_index(tgt_of)
        parts.append((f, d_tgt, tgt_blocks, set(_homology_dim(d_tgt, tgt_blocks))))
    return linalg.induced_map_on_homology(d_src, src_blocks, linalg.block_ranks(d_src, src_blocks),
                                          parts)


def _whole_cone(d_src, src_of, targets):
    """The oracle on the direct sum of the targets, keyed past the source, graded up by 2."""
    f_sum = {key: {} for key in d_src}
    d_sum, block_of = {}, dict(src_of)
    shift = len(d_src)
    for f, d_tgt, tgt_of in targets:
        for x, col in f.items():
            f_sum[x].update({shift + y: c for y, c in col.items()})
        for y, col in d_tgt.items():
            d_sum[shift + y] = {shift + t: c for t, c in col.items()}
            block_of[shift + y] = _up(tgt_of[y])
        shift += len(d_tgt)
    dims = tuple(sum(_homology_dim(cols, _block_index({k: block_of[k] for k in cols})).values())
                 for cols in (d_src, d_sum))
    return level_oracle.induced_rank_by_cone(f_sum, d_src, d_sum, block_of, dims)


@settings(max_examples=300, deadline=None)
@given(chain_maps())
def test_block_local_rank_equals_the_whole_cone(case):
    kind, d_src, src_of, targets = case
    rank = _block_local(d_src, src_of, targets)
    assert rank == _whole_cone(d_src, src_of, targets)
    if kind == "zero":
        assert rank == 0
    if kind == "quasi-isomorphism":  # injective on homology
        assert rank == sum(_homology_dim(d_src, _block_index(src_of)).values())


def _is_chain_map(f, d_src, d_tgt) -> bool:
    return all(linalg.apply(f, col) == linalg.apply(d_tgt, f[x]) for x, col in d_src.items())


@settings(max_examples=200, deadline=None)
@given(chain_maps(), st.data())
def test_a_non_chain_map_raises_with_the_same_witness(case, data):
    _, d_src, src_of, targets = case
    # perturb one entry of one part, inside a block, so that only that part may break
    k = data.draw(st.integers(0, len(targets) - 1))
    f, d_tgt, tgt_of = targets[k]
    pairs = [(x, y) for x in d_src for y in d_tgt if src_of[x] == tgt_of[y]]
    if not pairs:
        return
    x, y = data.draw(st.sampled_from(pairs))
    _add(f[x], y, data.draw(st.sampled_from((-1, 1, 2))))
    if _is_chain_map(f, d_src, d_tgt):
        assert _block_local(d_src, src_of, targets) == _whole_cone(d_src, src_of, targets)
        return
    messages = []
    for ranked in (_block_local, _whole_cone):
        with pytest.raises(LinearAlgebraError, match="not a chain map") as err:
            ranked(d_src, src_of, targets)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
