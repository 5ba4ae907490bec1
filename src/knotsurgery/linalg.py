"""Exact rational linear algebra on graded spaces.

Everything downstream reduces to rank / kernel / cokernel computations of
sparse maps with Fraction coefficients.  Gradings are stored *doubled*
(twice the Alexander grading) so half-integer gradings remain exact
integers.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

# Sparse vector keyed by generator id.  Zero coefficients are never stored.
Vec = dict


class LinearAlgebraError(Exception):
    """Malformed space or map data, or a failed structural precondition."""


@dataclass(frozen=True)
class Generator:
    gid: str
    alex: int  # twice the Alexander grading
    z2: int    # homological Z/2 grading


@dataclass(frozen=True)
class GradedSpace:
    generators: tuple[Generator, ...]

    def __post_init__(self):
        index: dict = {}
        for g in self.generators:
            if g.gid in index:
                raise LinearAlgebraError(f"duplicate generator id {g.gid!r}")
            if g.z2 not in (0, 1):
                raise LinearAlgebraError(f"generator {g.gid!r} has z2 grading {g.z2}, expected 0 or 1")
            index[g.gid] = g
        # Derived once; not fields, so equality and hashing see only the generators.
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ids", tuple(index))

    @property
    def dim(self) -> int:
        return len(self.generators)

    @property
    def ids(self) -> tuple[str, ...]:
        return self._ids

    def generator(self, gid: str) -> Generator:
        try:
            return self._index[gid]
        except KeyError:
            raise LinearAlgebraError(f"unknown generator id {gid!r}") from None

    def dims_by_grading(self) -> dict:
        """Dimension of each (doubled) Alexander grading level."""
        out: dict = {}
        for g in self.generators:
            out[g.alex] = out.get(g.alex, 0) + 1
        return out


def space(gens: Iterable[tuple]) -> GradedSpace:
    """Build a GradedSpace from (id, doubled-grading, z2) triples."""
    return GradedSpace(tuple(Generator(gid, int(alex), int(z2)) for gid, alex, z2 in gens))


@dataclass(frozen=True)
class SparseExactMap:
    source: GradedSpace
    target: GradedSpace
    entries: tuple  # of (target id, source id, Fraction)

    def __post_init__(self):
        src_ids = self.source._index
        tgt_ids = self.target._index
        seen = set()
        for tgt, src, val in self.entries:
            if src not in src_ids:
                raise LinearAlgebraError(f"entry references unknown source generator {src!r}")
            if tgt not in tgt_ids:
                raise LinearAlgebraError(f"entry references unknown target generator {tgt!r}")
            if (tgt, src) in seen:
                raise LinearAlgebraError(f"duplicate entry for (target={tgt!r}, source={src!r})")
            if val == 0:
                raise LinearAlgebraError(f"explicit zero entry at (target={tgt!r}, source={src!r})")
            seen.add((tgt, src))

    @cached_property
    def _cols(self) -> dict:
        """Column index {source id: {target id: coeff}}, built on first use, in entry order."""
        cols: dict = {gid: {} for gid in self.source.ids}
        for tgt, src, val in self.entries:
            cols[src][tgt] = val
        return cols

    def column(self, src_gid: str) -> Vec:
        """Image of one source generator, as a fresh dict the caller may mutate."""
        return dict(self._cols.get(src_gid, ()))

    def apply(self, vec: Vec) -> Vec:
        out: Vec = {}
        cols = self._cols
        for src, c in vec.items():
            for tgt, val in cols.get(src, {}).items():
                acc = out.get(tgt, Fraction(0)) + c * val
                if acc == 0:
                    out.pop(tgt, None)
                else:
                    out[tgt] = acc
        return out

    def compose(self, inner: "SparseExactMap") -> "SparseExactMap":
        """self after inner (self o inner)."""
        if inner.target != self.source:
            raise LinearAlgebraError("composition mismatch: inner target differs from outer source")
        entries = []
        for gid, col in inner._cols.items():
            img = self.apply(col)
            entries.extend((tgt, gid, val) for tgt, val in img.items())
        return SparseExactMap(inner.source, self.target, tuple(entries))


def sparse_map(source: GradedSpace, target: GradedSpace, entries: Iterable[tuple]) -> SparseExactMap:
    """Build a map from (target id, source id, coefficient) triples; non-Fractions are coerced."""
    return SparseExactMap(source, target, tuple(
        (t, s, v if type(v) is Fraction else Fraction(v)) for t, s, v in entries))


class Echelon:
    """Incremental echelon basis of sparse vectors with usage tracking.

    Stored vectors are normalized so their pivot (minimal row in a fixed
    row order) has coefficient 1; elimination therefore only touches rows
    at or below the pivot, and rows that cannot be cleared are final as
    soon as they are reached.  Inserted vectors may carry a tag; ``reduce``
    reports how much of each tagged vector was used, which is how cycles
    get expressed over homology representatives modulo boundaries.
    """

    def __init__(self, row_order: Sequence[str]):
        self._order = {rid: i for i, rid in enumerate(row_order)}
        self._pivots: dict = {}  # pivot row id -> (normalized vector, tag)

    def reduce(self, vec: Vec) -> tuple:
        """Return (residual, usage); usage is keyed by tags of used vectors."""
        res = dict(vec)
        residual: Vec = {}
        usage: dict = {}
        while res:
            piv = min(res, key=self._order.__getitem__)
            hit = self._pivots.get(piv)
            if hit is None:
                residual[piv] = res.pop(piv)
                continue
            basis_vec, tag = hit
            c = res[piv]
            for r, v in basis_vec.items():
                acc = res.get(r, Fraction(0)) - c * v
                if acc == 0:
                    res.pop(r, None)
                else:
                    res[r] = acc
            if tag is not None:
                usage[tag] = usage.get(tag, Fraction(0)) + c
        return residual, usage

    def store_residual(self, res: Vec, tag=None) -> str:
        """Insert an already fully reduced nonzero vector; returns its pivot."""
        piv = min(res, key=self._order.__getitem__)
        lead = res[piv]
        self._pivots[piv] = ({r: v / lead for r, v in res.items()}, tag)
        return piv

    def insert(self, vec: Vec, tag=None) -> Optional[str]:
        """Reduce then insert the residual; returns its pivot row or None."""
        res, _ = self.reduce(vec)
        if not res:
            return None
        return self.store_residual(res, tag)

    @property
    def rank(self) -> int:
        return len(self._pivots)


def rank(m: SparseExactMap) -> int:
    ech = Echelon(m.target.ids)
    for col in m._cols.values():
        ech.insert(col)
    return ech.rank


def kernel_basis(m: SparseExactMap) -> list:
    """Basis of ker(m) as sparse vectors over the source generators."""
    ech = Echelon(m.target.ids)
    exprs: dict = {}  # pivot row -> expression of the stored vector over source ids
    kernel = []
    for gid, col in m._cols.items():
        res, usage = ech.reduce(col)
        expr: Vec = {gid: Fraction(1)}
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
            piv = min(res, key=ech._order.__getitem__)
            lead = res[piv]
            ech._pivots[piv] = ({r: v / lead for r, v in res.items()}, piv)
            exprs[piv] = {s: v / lead for s, v in expr.items()}
    return kernel


@dataclass(frozen=True)
class HomologyClass:
    cid: str
    rep: tuple  # sparse representative as ((gid, Fraction), ...) pairs
    alex: Optional[int]  # doubled grading when the representative is homogeneous
    z2: Optional[int]

    def rep_vec(self) -> Vec:
        return dict(self.rep)


class Homology:
    """Basis of ker(d)/im(d) with chosen chain-level representatives."""

    def __init__(self, chain_space: GradedSpace, differential: SparseExactMap,
                 classes: list, solver: Echelon):
        self.chain_space = chain_space
        self.differential = differential
        self.classes = classes
        self._solver = solver
        self.space = GradedSpace(tuple(
            Generator(c.cid, c.alex if c.alex is not None else 0,
                      c.z2 if c.z2 is not None else 0)
            for c in classes
        ))

    @property
    def dim(self) -> int:
        return len(self.classes)

    def express(self, vec: Vec) -> Vec:
        """Coefficients of [vec] over the class basis (vec must be a cycle)."""
        res, usage = self._solver.reduce(vec)
        if res:
            raise LinearAlgebraError("vector is not in ker(d) + im(d); cannot express its class")
        return {cid: c for cid, c in usage.items() if c != 0}


def _homogeneous_grading(sp: GradedSpace, vec: Vec):
    alexes = {sp.generator(g).alex for g in vec}
    z2s = {sp.generator(g).z2 for g in vec}
    return (alexes.pop() if len(alexes) == 1 else None,
            z2s.pop() if len(z2s) == 1 else None)


def homology(sp: GradedSpace, d: SparseExactMap, prefix: str = "h") -> Homology:
    """Homology of (sp, d) with representatives.

    Requires d to be an endomorphism of sp with d o d = 0; the failure
    message names a witness generator.  A grading-homogeneous differential
    yields grading-homogeneous classes.
    """
    if d.source != sp or d.target != sp:
        raise LinearAlgebraError("differential is not an endomorphism of the given space")
    cols = d._cols
    for gid, col in cols.items():
        if d.apply(col):
            raise LinearAlgebraError(f"not a differential: d(d({gid})) != 0")

    solver = Echelon(sp.ids)
    for col in cols.values():
        solver.insert(col)  # boundaries, untagged
    classes = []
    for vec in kernel_basis(d):
        res, _ = solver.reduce(vec)
        if not res:
            continue
        cid = f"{prefix}{len(classes)}"
        alex, z2 = _homogeneous_grading(sp, res)
        piv = min(res, key=solver._order.__getitem__)
        lead = res[piv]
        norm = {r: v / lead for r, v in res.items()}
        classes.append(HomologyClass(cid, tuple(sorted(norm.items())), alex, z2))
        solver._pivots[piv] = (norm, cid)
    return Homology(sp, d, classes, solver)


def induced_map_on_homology(
    f: SparseExactMap,
    dsrc: SparseExactMap,
    dtgt: SparseExactMap,
    hsrc: Optional[Homology] = None,
    htgt: Optional[Homology] = None,
) -> SparseExactMap:
    """Map induced by the chain map f on homology bases.

    Checks f o dsrc = dtgt o f exactly, then maps representatives and
    re-expresses them modulo boundaries.
    """
    lhs = f.compose(dsrc)._cols
    rhs = dtgt.compose(f)._cols
    for gid in f.source.ids:
        if lhs[gid] != rhs[gid]:
            raise LinearAlgebraError(f"not a chain map: (f o d - d o f)({gid}) != 0")
    if hsrc is None:
        hsrc = homology(f.source, dsrc)
    if htgt is None:
        htgt = homology(f.target, dtgt)
    entries = []
    for cls in hsrc.classes:
        img = f.apply(cls.rep_vec())
        for tgt_cid, c in htgt.express(img).items():
            entries.append((tgt_cid, cls.cid, c))
    return SparseExactMap(hsrc.space, htgt.space, tuple(entries))
