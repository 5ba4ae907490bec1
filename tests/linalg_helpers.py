"""Sparse-map helpers that only the tests use, and the two-pass homology oracle.

``kernel_basis`` and ``homology_two_pass`` are the earlier homology
algorithm: one elimination of the columns of d for the boundaries, a second
one for a kernel basis, then the kernel vectors reduced modulo the
boundaries.  ``level_oracle.homology`` does this in one elimination, and
the tests hold it to the same classes and the same ``express``.
"""
from fractions import Fraction
from typing import Optional

from knotsurgery.linalg import GradedSpace, LinearAlgebraError, SparseExactMap
from level_oracle import Echelon, Homology, HomologyClass
from map_reads import apply, column, generator


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


def compose(outer: SparseExactMap, inner: SparseExactMap) -> SparseExactMap:
    """outer o inner."""
    if inner.target != outer.source:
        raise LinearAlgebraError("composition mismatch: inner target differs from outer source")
    entries = []
    for gid in inner.source.ids:
        img = apply(outer, column(inner, gid))
        entries.extend((tgt, gid, val) for tgt, val in img.items())
    return SparseExactMap(inner.source, outer.target, tuple(entries))


def is_zero(m: SparseExactMap) -> bool:
    return not m.entries


def kernel_basis(m: SparseExactMap) -> list:
    """Basis of ker(m) as sparse vectors over the source generators."""
    ech = Echelon(m.target.ids)
    exprs: dict = {}  # pivot row -> expression of the stored vector over source ids
    kernel = []
    for gid in m.source.ids:
        res, usage = ech.reduce(column(m, gid))
        expr = {gid: Fraction(1)}
        for piv, c in usage.items():
            for s, v in exprs[piv].items():
                acc = expr.get(s, Fraction(0)) - c * v
                if acc == 0:
                    expr.pop(s, None)
                else:
                    expr[s] = acc
        if not res:
            kernel.append(expr)
        else:
            piv = ech.store_residual(res)
            exprs[piv] = {s: v / res[piv] for s, v in expr.items()}
    return kernel


def homology_two_pass(sp: GradedSpace, d: SparseExactMap, prefix: str = "h") -> Homology:
    """Homology of (sp, d): boundaries first, then a kernel basis reduced modulo them."""
    if d.source != sp or d.target != sp:
        raise LinearAlgebraError("differential is not an endomorphism of the given space")
    for gid in sp.ids:
        if apply(d, column(d, gid)):
            raise LinearAlgebraError(f"not a differential: d(d({gid})) != 0")
    solver = Echelon(sp.ids)
    for gid in sp.ids:
        solver.insert(column(d, gid))
    classes, class_of = [], {}
    for vec in kernel_basis(d):
        res, _ = solver.reduce(vec)
        if not res:
            continue
        cid = f"{prefix}{len(classes)}"
        alexes = {generator(sp, g).alex for g in res}
        z2s = {generator(sp, g).z2 for g in res}
        piv = solver.store_residual(res)
        lead = res[piv]
        rep = tuple(sorted((r, v / lead) for r, v in res.items()))
        classes.append(HomologyClass(cid, rep, alexes.pop() if len(alexes) == 1 else None,
                                     z2s.pop() if len(z2s) == 1 else None))
        class_of[piv] = cid
    return Homology(d, classes, solver, class_of)
