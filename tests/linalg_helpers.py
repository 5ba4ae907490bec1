"""Sparse-map helpers that only the tests use: zero, identity, sum, zero test."""
from fractions import Fraction
from typing import Optional

from knotsurgery.linalg import GradedSpace, LinearAlgebraError, SparseExactMap


def zero_map(source: GradedSpace, target: Optional[GradedSpace] = None) -> SparseExactMap:
    return SparseExactMap(source, target if target is not None else source, ())


def identity_map(sp: GradedSpace) -> SparseExactMap:
    return SparseExactMap(sp, sp, tuple((gid, gid, Fraction(1)) for gid in sp.ids))


def add_maps(a: SparseExactMap, b: SparseExactMap) -> SparseExactMap:
    if a.source != b.source or a.target != b.target:
        raise LinearAlgebraError("cannot add maps with different source/target")
    acc: dict = {}
    for tgt, src, val in a.entries + b.entries:
        acc[(tgt, src)] = acc.get((tgt, src), Fraction(0)) + val
    entries = tuple((t, s, v) for (t, s), v in acc.items() if v != 0)
    return SparseExactMap(a.source, a.target, entries)


def is_zero(m: SparseExactMap) -> bool:
    return not m.entries
