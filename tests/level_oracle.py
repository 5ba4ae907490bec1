"""The rational homology with representatives that the level table replaced: its oracle.

``cone.pi_maps`` reads each level's shape off integer ranks of mapping
cones.  This module keeps the older route, over ``Fraction``-capable
coefficients: ``homology`` computes a basis of classes with chain-level
representatives from one echelon elimination of the columns of d,
``induced_map_on_homology`` maps the representatives and re-expresses
them modulo boundaries, and ``pi_maps`` gives each level's v and h rows
over the bent homology's classes.  ``level_rows`` is that level as
(class count, v row, h row) and ``shape`` the (n, v, h, line) it has,
which the tests hold ``K.levels`` to.  ``compute_tau`` reads tau off the
survivor classes, and ``rank`` ranks a ``SparseExactMap``.
``induced_rank_by_cone`` is the integer rank of an induced map read off
the homology of its whole mapping cone: the oracle of the block-local
``linalg.induced_map_on_homology``.  ``whole_level_shape`` is the integer
level table as it was before each level was read off the model's block
ranks: it builds the whole bent differential (``bent_columns``), ranks
every block of it and checks both projections as chain maps on every
generator.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from knotsurgery import linalg
from knotsurgery.knotcx import KnotComplex, ModelError, decompose
from knotsurgery.linalg import (
    Generator,
    GradedSpace,
    LinearAlgebraError,
    SparseExactMap,
    Vec,
    quotient,
    sparse_map,
)
from map_reads import apply, column, generator


class Echelon:
    """Incremental echelon basis of sparse rational vectors with usage tracking.

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
    for gid in m.source.ids:
        ech.insert(column(m, gid))
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
    alexes = {generator(sp, g).alex for g in vec}
    z2s = {generator(sp, g).z2 for g in vec}
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
    cols = {gid: column(d, gid) for gid in sp.ids}
    for gid, col in cols.items():
        if apply(d, col):
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
    for gid in f.source.ids:
        if apply(f, column(dsrc, gid)) != apply(dtgt, column(f, gid)):
            raise LinearAlgebraError(f"not a chain map: (f o d - d o f)({gid}) != 0")
    entries = []
    for cls in hsrc.classes:
        img = apply(f, cls.rep_vec())
        for tgt_cid, c in htgt.express(img).items():
            entries.append((tgt_cid, cls.cid, c))
    return SparseExactMap(hsrc.space, htgt.space, tuple(entries))


def induced_rank_by_cone(f: dict, d_src: dict, d_tgt: dict, block_of: dict, dims: tuple) -> int:
    """Rank of the map that the chain map f induces from H(d_src) to H(d_tgt), read off its cone.

    All three are integer columns, the source and target keys disjoint and
    graded by block_of, each map sending (a, z) into (a + 2, 1 - z); f has
    a column, maybe empty, for every source key.  dims = (dim H(d_src),
    dim H(d_tgt)).  Checks f(d_src(x)) = d_tgt(f(x)) exactly on every
    source generator x.  The cone (x, y) -> (-d_src x, f x + d_tgt y) has
    dim H = dims[0] + dims[1] - 2 rank f_*; it is ranked block by block
    without the sign, which changes no rank.
    """
    for key, col in d_src.items():
        if linalg.apply(f, col) != linalg.apply(d_tgt, f[key]):
            raise LinearAlgebraError(f"not a chain map: (f o d - d o f)({key}) != 0")
    cone = {key: {**col, **f[key]} for key, col in d_src.items()}
    cone.update(d_tgt)
    blocks: dict = {}
    for key in cone:
        blocks.setdefault(block_of[key], []).append(key)
    sizes = {block: len(keys) for block, keys in blocks.items()}
    classes = sum(linalg.homology(sizes, linalg.block_ranks(cone, blocks), 2).values())
    return (sum(dims) - classes) // 2


# --- the level table, rows and all ---------------------------------------------

def bent_differential(K: KnotComplex, s: int) -> SparseExactMap:
    """Differential applying d+ above the (true-unit) level s, d+ + d- at it, d- below."""
    s2 = 2 * s
    entries = []
    for g in K.space.generators:
        k = g.alex - s2
        if k >= 0:
            entries.extend((tgt, g.gid, v) for tgt, v in column(K.d_plus, g.gid).items())
        if k <= 0:
            entries.extend((tgt, g.gid, v) for tgt, v in column(K.d_minus, g.gid).items())
    return sparse_map(K.space, K.space, entries)


def projection(K: KnotComplex, s: int, side: int) -> SparseExactMap:
    """Chain-level projection onto levels <= s (side=-1) or >= s (side=+1)."""
    s2 = 2 * s
    keep = [g.gid for g in K.space.generators
            if (g.alex <= s2 if side < 0 else g.alex >= s2)]
    return sparse_map(K.space, K.space, [(g, g, 1) for g in keep])


@lru_cache(maxsize=256)  # bounded: each entry keeps its model alive
def homologies(K: KnotComplex) -> tuple:
    """(H(d-), H(d+)) with representatives."""
    return homology(K.space, K.d_minus, prefix="m"), homology(K.space, K.d_plus, prefix="p")


def bent_homology(K: KnotComplex, s: int) -> Homology:
    """Homology of the bent complex at level s (with representatives)."""
    return homology(K.space, bent_differential(K, s), prefix=f"b{s}_")


def pi_maps(K: KnotComplex, s: int) -> tuple:
    """Induced projections (v to the lowering complex, h to the raising one)."""
    hA = bent_homology(K, s)
    hB_minus, hB_plus = homologies(K)
    v = induced_map_on_homology(projection(K, s, -1), hA.differential, K.d_minus, hA, hB_minus)
    h = induced_map_on_homology(projection(K, s, +1), hA.differential, K.d_plus, hA, hB_plus)
    return v, h


@lru_cache(maxsize=2048)
def level_rows(K: KnotComplex, s: int) -> tuple:
    """(class count, v row, h row) at level s; rows are {class index: coeff}."""
    v, h = pi_maps(K, s)
    order = {cid: i for i, cid in enumerate(v.source.ids)}
    return (v.source.dim, {order[src]: val for _, src, val in v.entries},
            {order[src]: val for _, src, val in h.entries})


def proportional(a: dict, b: dict) -> bool:
    """Whether two nonzero rows are scalar multiples of each other (exact)."""
    if a.keys() != b.keys():
        return False
    j0 = next(iter(a))
    return all(a[j] * b[j0] == b[j] * a[j0] for j in a)


def shape(K: KnotComplex, s: int) -> tuple:
    """(class count, v != 0, h != 0, v and h nonzero and proportional) read off the rows."""
    n, v_row, h_row = level_rows(K, s)
    return n, bool(v_row), bool(h_row), bool(v_row and h_row and proportional(v_row, h_row))


def compute_tau(K: KnotComplex) -> int:
    """Alexander grading of the lowering-differential survivor.

    Requires both one-differential homologies to be one-dimensional, which
    is what makes the model a knot-in-the-three-sphere model.
    """
    hm, hp = homologies(K)
    if hm.dim != 1 or hp.dim != 1:
        raise ModelError(
            f"not an S^3-knot model: homology dims are d-:{hm.dim}, d+:{hp.dim}, expected 1 and 1")
    alex_m = hm.classes[0].alex
    alex_p = hp.classes[0].alex
    if alex_m is None or alex_p is None or alex_m != -alex_p or alex_m % 2:
        raise ModelError("survivor classes are not at opposite integer gradings")
    return alex_m // 2


# --- the whole level on integer ranks ----------------------------------------

def bent_columns(K: KnotComplex, s: int) -> dict:
    """Differential applying d+ above the (true-unit) level s, d+ + d- at it, d- below.

    Integer columns over generator positions, read from ``K.integer_maps``,
    each map times its own LCM.  A column off the bend is the model's own,
    not a copy.
    """
    P, M = K.integer_maps
    s2 = 2 * s
    return {i: P[i] if g.alex > s2 else M[i] if g.alex < s2 else {**P[i], **M[i]}
            for i, g in enumerate(K.space.generators)}


def bent_complex(K: KnotComplex, s: int) -> tuple:
    """(columns, blocks, ranks, class count) of the whole bent complex at level s.

    blocks lists the positions of each block (|alex - 2s|, z2), which the
    bent differential raises by 2 with z2 flipped: ``K.blocks`` re-keyed,
    the two model blocks at alex = 2s +- k joined.  ranks is its rank out of
    each block, and the class count is dim H summed over the blocks.
    """
    bent, s2 = bent_columns(K, s), 2 * s
    blocks: dict = {}
    for (a, z), positions in K.blocks.items():
        blocks.setdefault((abs(a - s2), z), []).extend(positions)
    ranks = linalg.block_ranks(bent, blocks)
    sizes = {block: len(keys) for block, keys in blocks.items()}
    return bent, blocks, ranks, sum(linalg.homology(sizes, ranks, 2).values())


def whole_level_shape(K: KnotComplex, s: int) -> tuple:
    """The shape (n, v, h, line) of ``cone.pi_maps`` from the whole bent complex of level s.

    Each projection is a column {i: {i: 1}} or {} for every generator, so
    ``linalg.induced_map_on_homology`` checks it as a chain map on every
    generator.  The targets are (C, d-) graded by 2s - alex and (C, d+) by
    alex - 2s, z2 kept, their blocks ``K.blocks`` re-keyed one to one.
    """
    decompose(K)
    bent, blocks, ranks, n = bent_complex(K, s)
    P, M = K.integer_maps
    h_minus, h_plus = K.report.homology_blocks
    s2 = 2 * s
    low = {i: {i: 1} if g.alex <= s2 else {} for i, g in enumerate(K.space.generators)}
    high = {i: {i: 1} if g.alex >= s2 else {} for i, g in enumerate(K.space.generators)}
    minus_blocks = {(s2 - a, z): positions for (a, z), positions in K.blocks.items()}
    plus_blocks = {(a - s2, z): positions for (a, z), positions in K.blocks.items()}
    at_minus = {(s2 - a, z) for a, z in h_minus}
    at_plus = {(a - s2, z) for a, z in h_plus}
    minus, plus = (low, M, minus_blocks, at_minus), (high, P, plus_blocks, at_plus)
    v = linalg.induced_map_on_homology(bent, blocks, ranks, [minus]) > 0
    h = linalg.induced_map_on_homology(bent, blocks, ranks, [plus]) > 0
    line = (v and h and at_minus == at_plus
            and linalg.induced_map_on_homology(bent, blocks, ranks, [minus, plus]) == 1)
    return n, v, h, line
