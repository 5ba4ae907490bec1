"""Id-keyed reads of a ``GradedSpace`` and a ``SparseExactMap``, which only the tests' oracles use.

The library reads a map through its column index ``columns``, keyed by
generator position.  The rational oracles work with vectors keyed by
generator id: ``position`` and ``generator`` look an id up in its space,
``column`` is the image of one generator and ``apply`` the image of a
vector.  An unknown id raises ``LinearAlgebraError``.
"""
from knotsurgery.linalg import Generator, GradedSpace, LinearAlgebraError, SparseExactMap, Vec


def position(sp: GradedSpace, gid: str) -> int:
    """The place of generator gid in the space, read off the index the space builds."""
    try:
        return sp._index[gid]
    except KeyError:
        raise LinearAlgebraError(f"unknown generator id {gid!r}") from None


def generator(sp: GradedSpace, gid: str) -> Generator:
    return sp.generators[position(sp, gid)]


def column(m: SparseExactMap, src_gid: str) -> Vec:
    """Image of one source generator, as a fresh dict the caller may mutate."""
    ids = m.target.ids
    return {ids[j]: v for j, v in m.columns[position(m.source, src_gid)].items()}


def apply(m: SparseExactMap, vec: Vec) -> Vec:
    """Image of a vector keyed by source id, keyed by target id; cancelled entries dropped."""
    out: Vec = {}
    for src, c in vec.items():
        for tgt, val in column(m, src).items():
            if acc := out.get(tgt, 0) + c * val:
                out[tgt] = acc
            else:
                out.pop(tgt, None)
    return out
