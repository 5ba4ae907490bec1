"""Exact linear algebra on graded spaces.

Sparse maps with exact rational coefficients: a coefficient is an ``int``
when it is integral and a ``Fraction`` otherwise, never a float, and the
one division, ``quotient``, builds a ``Fraction`` only when it leaves a
remainder.  Gradings are stored *doubled* (twice the Alexander grading) so
half-integer gradings remain exact integers.

Ranks are taken on integer columns, a map scaled by the LCM of its
denominators, which changes no rank: ``Echelon`` is the one (fraction-free)
eliminator, ``block_ranks`` ranks a graded map block by block,
``homology`` gives dim H per block from those ranks, and
``induced_map_on_homology`` the rank of an induced map from one
elimination per block where the target's homology lives, the source's
block ranks given.  No class representative is ever formed.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Sequence

# Sparse vector keyed by generator id.  Zero coefficients are never stored.
Vec = dict


class LinearAlgebraError(Exception):
    """Malformed space or map data, or a failed structural precondition."""


class Generator(NamedTuple):
    gid: str
    alex: int  # twice the Alexander grading
    z2: int    # homological Z/2 grading


class GradedSpace(NamedTuple("GradedSpace", [("generators", tuple)])):
    """A tuple of generators with distinct ids, each id indexed to its position at construction."""

    def __new__(cls, generators: tuple):
        self = super().__new__(cls, generators)
        index: dict = {}
        for i, g in enumerate(generators):
            if g.gid in index:
                raise LinearAlgebraError(f"duplicate generator id {g.gid!r}")
            if g.z2 not in (0, 1):
                raise LinearAlgebraError(f"generator {g.gid!r} has z2 grading {g.z2}, expected 0 or 1")
            index[g.gid] = i
        # Derived once; not fields, so equality and hashing see only the generators.
        self._index = index
        self._ids = tuple(index)
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace runs the checks too
        return cls(*iterable)

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    def position(self, gid: str) -> int:
        """The place of generator gid in the space."""
        try:
            return self._index[gid]
        except KeyError:
            raise LinearAlgebraError(f"unknown generator id {gid!r}") from None

    def generator(self, gid: str) -> Generator:
        return self.generators[self.position(gid)]


def space(gens: Iterable[tuple]) -> GradedSpace:
    """Build a GradedSpace from (id, doubled-grading, z2) triples."""
    return GradedSpace(tuple(Generator(gid, int(alex), int(z2)) for gid, alex, z2 in gens))


class SparseExactMap(NamedTuple("SparseExactMap", [
        ("source", GradedSpace), ("target", GradedSpace), ("entries", tuple)])):
    """Entries are (target id, source id, coefficient) triples, checked at construction.

    A coefficient is a nonzero ``int``, or a ``Fraction`` when it is not
    integral (``sparse_map`` normalises to this).  The check fills the one
    column index ``columns``, {source position: {target position: coefficient}}:
    a column, maybe empty, per source generator, each in entry order.
    """

    def __new__(cls, source: GradedSpace, target: GradedSpace, entries: tuple):
        src_at, tgt_at = source._index, target._index
        columns: dict = {i: {} for i in range(len(src_at))}
        for tgt, src, val in entries:
            if (i := src_at.get(src)) is None:
                raise LinearAlgebraError(f"entry references unknown source generator {src!r}")
            if (j := tgt_at.get(tgt)) is None:
                raise LinearAlgebraError(f"entry references unknown target generator {tgt!r}")
            if j in (col := columns[i]):
                raise LinearAlgebraError(f"duplicate entry for (target={tgt!r}, source={src!r})")
            if val == 0:
                raise LinearAlgebraError(f"explicit zero entry at (target={tgt!r}, source={src!r})")
            col[j] = val
        self = super().__new__(cls, source, target, entries)
        self.columns = columns  # not a field, so equality and hashing see only the fields
        return self

    @classmethod
    def _make(cls, iterable):  # so that _replace runs the checks too
        return cls(*iterable)


def _exact(v):
    """v as an exact coefficient: an int when integral, else a Fraction."""
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def sparse_map(source: GradedSpace, target: GradedSpace, entries: Iterable[tuple]) -> SparseExactMap:
    """Build a map from (target id, source id, coefficient) triples, coefficients made exact."""
    return SparseExactMap(source, target, tuple(
        (t, s, v if type(v) is int else _exact(v)) for t, s, v in entries))


def quotient(a, b):
    """Exact a / b: an int when b divides a, else a Fraction; never a float."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    q = a / b  # a Fraction operand makes this a Fraction
    return q.numerator if q.denominator == 1 else q


class Echelon:
    """Fraction-free echelon basis of sparse integer vectors: the one eliminator.

    ``reduce`` divides each vector by the gcd of its entries and pivots it
    on its least key.  A free pivot stores it; otherwise the stored vector
    there clears the pivot, both sides multiplied by the cofactors of the
    two pivot entries, so the coefficients stay integers and small.  The
    vectors given are left unchanged.
    """

    def __init__(self):
        self._pivots: dict = {}  # pivot key -> stored vector, its entries coprime

    def reduce(self, vectors: Iterable[Vec]) -> int:
        """Eliminate each vector against the stored ones and store what is left; returns the rank."""
        pivots = self._pivots
        for vec in vectors:
            while vec:
                if (g := gcd(*vec.values())) != 1:
                    vec = {r: v // g for r, v in vec.items()}
                piv = min(vec)
                basis = pivots.get(piv)
                if basis is None:
                    pivots[piv] = vec
                    break
                # vec * a - basis * c clears the pivot; a and c share no factor
                g = gcd(basis[piv], vec[piv])
                a, c = basis[piv] // g, vec[piv] // g
                out = {r: v * a for r, v in vec.items()}
                for r, v in basis.items():
                    if x := out.get(r, 0) - v * c:
                        out[r] = x
                    else:
                        del out[r]
                vec = out
        return len(pivots)


def apply(cols: dict, vec: Vec) -> Vec:
    """The image of the integer vector vec under the map with integer columns cols."""
    out: Vec = {}
    for src, c in vec.items():
        for tgt, v in cols[src].items():
            if x := out.get(tgt, 0) + c * v:
                out[tgt] = x
            else:
                del out[tgt]
    return out


def block_ranks(cols: dict, blocks: dict) -> dict:
    """{block: rank of the columns of its keys}, blocks of rank 0 left out.

    cols are integer columns {key: {key: int}}; blocks lists the keys of
    each block, {block: [keys]}.  Each block is ranked by its own ``Echelon``.
    """
    out = {}
    for block, keys in blocks.items():
        vectors = []
        for key in keys:
            if col := cols[key]:
                vectors.append(col)
        if vectors:
            out[block] = 1 if len(vectors) == 1 else Echelon().reduce(vectors)
    return out


def homology(sizes: dict, ranks: dict, shift: int) -> dict:
    """{block: dim H there} of a differential, from its block sizes and ranks; zeros left out.

    Blocks are (grading, z2), and the differential maps (a, z) into
    (a + shift, 1 - z); ranks holds the rank out of each block.  dim H at a
    block is its size minus the rank out of it minus the rank into it.
    """
    return {(a, z): n for (a, z), size in sizes.items()
            if (n := size - ranks.get((a, z), 0) - ranks.get((a - shift, 1 - z), 0))}


def induced_map_on_homology(d_src: dict, src_blocks: dict, src_ranks: dict,
                            targets: Sequence) -> int:
    """Rank of the map that chain maps out of (A, d_src) induce from H(A) to their targets' H.

    Integer columns over keys that are non-negative ints.  Each
    differential sends block (a, z) into (a + 2, 1 - z), and each chain map
    keeps the block.  src_blocks lists the keys of each block of A,
    {block: [keys]}, and src_ranks holds the rank of d_src out of each
    block (``block_ranks``).  targets holds (f, d_tgt, tgt_blocks,
    tgt_homology) for each target complex (B, d_tgt): f has a column,
    maybe empty, for every source key; tgt_blocks lists B's keys by block;
    tgt_homology holds the blocks where H(B) is nonzero.  One target gives
    the rank of f_*: H(A) -> H(B); several give the rank into the
    homology of their direct sum.  Checks f(d_src(x)) = d_tgt(f(x))
    exactly on every source generator x, target by target.

    The rank is a sum over blocks.  At block b, the vectors (d_src x, f x)
    for x in A_b and d_tgt y for y in the block before b have rank
    rank d_src out of b + rank d_tgt into b + rank (f_*)_b, where (f_*)_b
    maps H_b(A) to H_b(B): the first coordinate spans the image of d_src,
    and what lies over 0 is f of the cycles at b plus the boundaries at b.
    So (f_*)_b is zero unless H(B) is nonzero at b, and where it is, one
    ``Echelon`` stores the d_tgt vectors first, whose rank it returns, and
    then the others.  Inside it, key t of target k of m becomes the
    negative key ~(t * m + k), so targets may share keys with each other
    and with the source.
    """
    for f, d_tgt, _, _ in targets:
        for key, col in d_src.items():
            if apply(f, col) != apply(d_tgt, f[key]):
                raise LinearAlgebraError(f"not a chain map: (f o d - d o f)({key}) != 0")
    m = len(targets)
    total = 0
    for a, z in set().union(*(h for _, _, _, h in targets)):
        sources = src_blocks.get((a, z))
        if not sources:
            continue
        ech = Echelon()
        boundaries = ech.reduce({~(t * m + k): c for t, c in d_tgt[y].items()}
                                for k, (_, d_tgt, tgt_blocks, _) in enumerate(targets)
                                for y in tgt_blocks.get((a - 2, 1 - z), ()))
        images = ({**d_src[x], **{~(t * m + k): c for k, (f, _, _, _) in enumerate(targets)
                                  for t, c in f[x].items()}}
                  for x in sources)
        total += ech.reduce(images) - boundaries - src_ranks.get((a, z), 0)
    return total
