"""Exact rational linear algebra on graded spaces.

Sparse maps with exact rational coefficients, their ranks, homology with
chosen representatives (one echelon elimination of the columns of d per
homology) and induced maps on homology.  A coefficient is an ``int`` when
it is integral and a ``Fraction`` otherwise, never a float: the one
division, ``quotient``, builds a ``Fraction`` only when it leaves a
remainder, so a model with integral entries and unit pivots is eliminated
in ints alone.  Gradings are stored *doubled* (twice the Alexander grading)
so half-integer gradings remain exact integers.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Optional, Sequence

# Sparse vector keyed by generator id.  Zero coefficients are never stored.
Vec = dict


class LinearAlgebraError(Exception):
    """Malformed space or map data, or a failed structural precondition."""


class Generator(NamedTuple):
    gid: str
    alex: int  # twice the Alexander grading
    z2: int    # homological Z/2 grading


class GradedSpace(NamedTuple("GradedSpace", [("generators", tuple)])):
    """A tuple of generators with distinct ids, indexed by id at construction."""

    def __new__(cls, generators: tuple):
        self = super().__new__(cls, generators)
        index: dict = {}
        for g in generators:
            if g.gid in index:
                raise LinearAlgebraError(f"duplicate generator id {g.gid!r}")
            if g.z2 not in (0, 1):
                raise LinearAlgebraError(f"generator {g.gid!r} has z2 grading {g.z2}, expected 0 or 1")
            index[g.gid] = g
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


class SparseExactMap(NamedTuple("SparseExactMap", [
        ("source", GradedSpace), ("target", GradedSpace), ("entries", tuple)])):
    """Entries are (target id, source id, coefficient) triples, checked at construction.

    A coefficient is a nonzero ``int``, or a ``Fraction`` when it is not
    integral (``sparse_map`` normalises to this).
    """

    def __new__(cls, source: GradedSpace, target: GradedSpace, entries: tuple):
        src_ids = source._index
        tgt_ids = target._index
        seen = set()
        for tgt, src, val in entries:
            if src not in src_ids:
                raise LinearAlgebraError(f"entry references unknown source generator {src!r}")
            if tgt not in tgt_ids:
                raise LinearAlgebraError(f"entry references unknown target generator {tgt!r}")
            if (tgt, src) in seen:
                raise LinearAlgebraError(f"duplicate entry for (target={tgt!r}, source={src!r})")
            if val == 0:
                raise LinearAlgebraError(f"explicit zero entry at (target={tgt!r}, source={src!r})")
            seen.add((tgt, src))
        return super().__new__(cls, source, target, entries)

    @classmethod
    def _make(cls, iterable):  # so that _replace runs the checks too
        return cls(*iterable)

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
                acc = out.get(tgt)
                acc = c * val if acc is None else acc + c * val
                if acc == 0:
                    out.pop(tgt, None)
                else:
                    out[tgt] = acc
        return out


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
    """Incremental echelon basis of sparse vectors with usage tracking.

    Stored vectors are normalized so their pivot (minimal row in a fixed
    row order) has coefficient 1; elimination therefore only touches rows
    at or below the pivot, and rows that cannot be cleared are final as
    soon as they are reached.  ``reduce`` reports how much of each stored
    vector it used, keyed by that vector's pivot row.
    """

    def __init__(self, row_order: Sequence[str]):
        self._order = {rid: i for i, rid in enumerate(row_order)}
        self._pivots: dict = {}  # pivot row id -> normalized vector

    def reduce(self, vec: Vec) -> tuple:
        """Return (residual, usage); usage maps each used vector's pivot row to its multiple."""
        res = dict(vec)
        residual: Vec = {}
        usage: dict = {}
        while res:
            piv = min(res, key=self._order.__getitem__)
            basis_vec = self._pivots.get(piv)
            if basis_vec is None:
                residual[piv] = res.pop(piv)
                continue
            c = usage[piv] = res[piv]
            sub_scaled(res, c, basis_vec)
        return residual, usage

    def store_residual(self, res: Vec) -> str:
        """Insert an already fully reduced nonzero vector; returns its pivot."""
        piv = min(res, key=self._order.__getitem__)
        lead = res[piv]
        self._pivots[piv] = {r: quotient(v, lead) for r, v in res.items()}
        return piv

    def insert(self, vec: Vec) -> Optional[str]:
        """Reduce then insert the residual; returns its pivot row or None."""
        res, _ = self.reduce(vec)
        return self.store_residual(res) if res else None

    @property
    def rank(self) -> int:
        return len(self._pivots)


def sub_scaled(acc: Vec, c, vec: Vec):
    """acc -= c * vec in place, dropping entries that cancel."""
    for r, v in vec.items():
        x = acc.get(r)
        x = -c * v if x is None else x - c * v
        if x == 0:
            acc.pop(r, None)
        else:
            acc[r] = x


def rank(m: SparseExactMap) -> int:
    ech = Echelon(m.target.ids)
    for col in m._cols.values():
        ech.insert(col)
    return ech.rank


class HomologyClass(NamedTuple):
    cid: str
    rep: tuple  # sparse representative as ((gid, coefficient), ...) pairs, int where integral
    alex: Optional[int]  # doubled grading when the representative is homogeneous
    z2: Optional[int]

    def rep_vec(self) -> Vec:
        return dict(self.rep)


class Homology:
    """Basis of ker(d)/im(d) with chosen chain-level representatives."""

    def __init__(self, differential: SparseExactMap, classes: list, solver: Echelon,
                 class_of: dict):
        self.differential = differential
        self.classes = classes
        self._solver = solver  # the boundaries, then the class representatives
        self._class_of = class_of  # pivot row of each representative -> class id
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
        class_of = self._class_of
        return {class_of[piv]: c for piv, c in usage.items() if piv in class_of}


def _homogeneous_grading(sp: GradedSpace, vec: Vec):
    alexes = {sp.generator(g).alex for g in vec}
    z2s = {sp.generator(g).z2 for g in vec}
    return (alexes.pop() if len(alexes) == 1 else None,
            z2s.pop() if len(z2s) == 1 else None)


def homology(sp: GradedSpace, d: SparseExactMap, prefix: str = "h") -> Homology:
    """Homology of (sp, d) with representatives, from one elimination of the columns of d.

    Columns that stay independent are the boundaries; each column that
    clears gives a cycle through the chains of the boundaries it used.  The
    cycles independent modulo the boundaries and earlier classes are the
    classes.  Requires d to be an endomorphism of sp with d o d = 0; the
    failure message names a witness generator.  A grading-homogeneous
    differential yields grading-homogeneous classes.
    """
    if d.source != sp or d.target != sp:
        raise LinearAlgebraError("differential is not an endomorphism of the given space")
    cols = d._cols
    for gid, col in cols.items():
        if d.apply(col):
            raise LinearAlgebraError(f"not a differential: d(d({gid})) != 0")

    solver = Echelon(sp.ids)
    chains: dict = {}  # pivot row of a stored boundary -> chain whose boundary it is
    cycles = []
    for gid, col in cols.items():
        res, usage = solver.reduce(col)
        chain: Vec = {gid: 1}
        for piv, c in usage.items():
            sub_scaled(chain, c, chains[piv])
        if res:
            piv = solver.store_residual(res)
            lead = res[piv]
            chains[piv] = {s: quotient(v, lead) for s, v in chain.items()}
        else:
            cycles.append(chain)
    classes = []
    class_of: dict = {}
    for z in cycles:
        res, _ = solver.reduce(z)
        if not res:
            continue
        cid = f"{prefix}{len(classes)}"
        alex, z2 = _homogeneous_grading(sp, res)
        piv = solver.store_residual(res)
        classes.append(HomologyClass(cid, tuple(sorted(solver._pivots[piv].items())), alex, z2))
        class_of[piv] = cid
    return Homology(d, classes, solver, class_of)


def induced_map_on_homology(f: SparseExactMap, dsrc: SparseExactMap, dtgt: SparseExactMap,
                            hsrc: Homology, htgt: Homology) -> SparseExactMap:
    """Map induced by the chain map f from hsrc = H(dsrc) to htgt = H(dtgt).

    Checks f(dsrc(x)) = dtgt(f(x)) exactly on every source generator x, then
    maps representatives and re-expresses them modulo boundaries.
    """
    if not (dsrc.source == dsrc.target == f.source and dtgt.source == dtgt.target == f.target):
        raise LinearAlgebraError("f does not map the source complex's space to the target's")
    fcols, dcols = f._cols, dsrc._cols
    for gid in f.source.ids:
        if f.apply(dcols[gid]) != dtgt.apply(fcols[gid]):
            raise LinearAlgebraError(f"not a chain map: (f o d - d o f)({gid}) != 0")
    entries = []
    for cls in hsrc.classes:
        img = f.apply(cls.rep_vec())
        for tgt_cid, c in htgt.express(img).items():
            entries.append((tgt_cid, cls.cid, c))
    return SparseExactMap(hsrc.space, htgt.space, tuple(entries))
