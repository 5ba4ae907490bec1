"""Dehn-surgery dimensions from mapping cones over knot models.

The surgered-manifold invariant is ker + coker of a finite map assembled
from per-level homologies of the model.  Each level s carries the homology
of the complex whose differential bends from the raising differential above
s to the lowering one below s; it maps to a one-dimensional slot at level s
(low-side projection) and another at level s + slope-numerator (high-side
projection routed through the canonical slot identification).  Far levels
pair off by isomorphisms, so a finite window computes the whole thing; the
window size is a parameter and enlarging it never changes the answer.

Every nonzero slope is answered from the model's decomposition
(``knotcx.decompose``): a valid model is a staircase of tau plus k squares,
so the rank formula of the rational mapping cone (Ni-Wu, after
Ozsvath-Szabo) has the terms z = max(0, 2 tau - 1), m = max(0, -2 tau - 1)
and sigma = 2k + 2m, which is ``formulas.thin_surgery_formula`` at the
model's dimension 2 |tau| + 1 + 4k.  A square adds two classes, with no
rows, at the one level strictly inside its gradings.  The zero-surgery
table is read off the same decomposition.  No level is read.  The level
table of the model as given feeds the independent oracles of
``--compare``, ``crosscheck`` and the tests: ``build_cone_problem`` ranks
the cone itself, ``large_surgery_dim`` sums the bent homologies of the
large-surgery regime and ``zero_surgery_levels`` reads the zero-surgery
slots off them.

Each level of the table is its shape (``pi_maps``): the class count and
whether the v and h rows are nonzero and proportional, which is all the
cone reads.  It comes from integer ranks alone, per block of grading and
Z/2.  Off the bend, a block of the bent differential has the ranks of d+
and d- that ``validate`` keeps, so the class count takes one elimination,
of the bend.  The rank of an induced map is a sum over the blocks of its
mapping cone, of which only the block where the target's homology lives
can add anything.  H(d-) and H(d+) are one block each, and off the bend
a survivor's representative is a cycle of the bent differential, so v, h
and the pair (v, h) take a small elimination only when a survivor lies
in the bend, on that block alone, with a chain-map check on its columns.
No level reads every generator, and no class representative is formed.

The cone is ranked without elimination.  Source sigma reaches only the
slots sigma and sigma + 2p, so the incidence graph is a disjoint union of
paths, and one pass over the sources in lattice order finds the rank from
the shape of each source's block, its level's rows, naming each path by
its lowest slot (see ``ConeProblem.dimension``).

Sign conventions are calibrated by two anchors: the right trefoil must give
dimension 1 at slope +1 and the figure-eight 3.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .formulas import _check_slope, thin_surgery_formula
from .knotcx import KnotComplex, PreconditionError, decompose
from .linalg import block_ranks, homology, induced_map_on_homology


# Lattice slots a cone may span, checked before any assembly: (2W - 1) q
# for the materialised knot cone at slope p/q and (2W + 1) |offsets| for the
# exterior-algebra cone, W being the window half-width.  On a 2-vCPU host a
# knot cone at the limit is built and ranked in 0.19-0.30 s in process, with
# a peak RSS of 56 MB (figure-eight at slope +-1/499999, one path through
# every slot).  ``surgery_dim`` builds no cone, so the limit
# binds only ``--compare``, the oracles and the exterior-algebra cone.
MAX_LATTICE_SLOTS = 5 * 10 ** 5


# Level-table cells a call may fill, checked before it computes its first
# new level: (levels not yet in K.levels) x K.dim.  A level no longer
# costs a pass over K.dim: it eliminates its bend, and the block there
# again when it holds a survivor (see ``pi_maps``).  On a 2-vCPU host,
# filling every level takes 0.02-0.15 us per cell for staircases and
# square-rich thin models (staircase(200): 0.006 s), and 23 us per cell
# on a dense whole-space rational scramble of 167 generators, where the
# bend eliminations dominate.  ``--compare`` at slope 1 on a
# 9959-generator model of genus 10 (189221 cells) takes 0.27-0.33 s wall
# there, most of it building and validating the model.  Every level of
# staircase(200), the largest genus a spec may declare, is 403 x 401 =
# 161603 cells.  The limit and its refusal are kept as they were.
# ``surgery_dim`` and ``zero_surgery_dims`` read no level, so the limit
# binds only ``--compare`` and the oracles.
MAX_LEVEL_CELLS = 2 * 10 ** 5


def check_lattice_slots(slots: int):
    """Raise PreconditionError, naming the limit, when slots exceeds MAX_LATTICE_SLOTS."""
    if slots > MAX_LATTICE_SLOTS:
        raise PreconditionError(f"the cone needs {slots} lattice slots, over the limit "
                                f"MAX_LATTICE_SLOTS = {MAX_LATTICE_SLOTS}")


def _bend(K: KnotComplex, s2: int) -> tuple:
    """(columns, blocks, ranks) of the bend: the model blocks at doubled grading s2 under d+ + d-.

    They are the bent complex's blocks (0, z), and their ranks take the one
    elimination of a level: d+ and d- send a column to different gradings,
    so its (d+ + d-) column is the two joined.
    """
    P, M = K.integer_maps
    blocks = {(0, z): K.blocks.get((s2, z), []) for z in (0, 1)}
    cols = {i: {**P[i], **M[i]} for positions in blocks.values() for i in positions}
    return cols, blocks, block_ranks(cols, blocks)


def _classes(K: KnotComplex, s2: int, bend_ranks: dict) -> tuple:
    """(class count, {(k, z): dim H} for k = 0, 2) of the bent complex at doubled level s2.

    The bent block (k, z), k > 0, is the model block (s2 + k, z) under d+
    and (s2 - k, z) under d-, whose images lie apart, so its rank is the
    sum of theirs (``K.report.ranks``).  For k >= 4 the rank into it is
    also the model's, so its dim H is dim H(d+) at s2 + k plus dim H(d-) at
    s2 - k: the one class of H(d+) when it lies at s2 + 4 or above, and of
    H(d-) at s2 - 4 or below.  Only the blocks k = 0 and 2, next to the
    bend, are counted with ``homology``; zeros are left out.
    """
    (minus, plus), ((a_m, _),), ((a_p, _),) = K.report.ranks, *K.report.homology_blocks
    sizes, ranks = {}, dict(bend_ranks)
    for z in (0, 1):
        sizes[0, z] = len(K.blocks.get((s2, z), ()))
        sizes[2, z] = len(K.blocks.get((s2 + 2, z), ())) + len(K.blocks.get((s2 - 2, z), ()))
        ranks[2, z] = plus.get((s2 + 2, z), 0) + minus.get((s2 - 2, z), 0)
    near = homology(sizes, ranks, 2)
    return sum(near.values()) + (a_p >= s2 + 4) + (a_m <= s2 - 4), near


def bent_homology(K: KnotComplex, s: int) -> int:
    """Class count of the bent complex at level s, from block ranks; ModelError if K is invalid."""
    decompose(K)
    return _classes(K, 2 * s, _bend(K, 2 * s)[2])[0]


def pi_maps(K: KnotComplex, s: int) -> tuple:
    """The shape (n, v, h, line) of level s, read off integer ranks; ModelError if K is invalid.

    n is the class count (``bent_homology``).  v and h say whether the
    induced projections of the bent homology to H(d-) (onto levels <= s)
    and to H(d+) (onto levels >= s) are nonzero; line says that both are
    and that they are proportional, the pair (v, h) having rank 1.

    H(d-) and H(d+) are one block each (``K.report.homology_blocks``), and
    a projection's rank lives in the bent block at its survivor's grading
    (``linalg.induced_map_on_homology``).  A survivor past the bend, on the
    side its projection kills, gives zero.  One strictly on the kept side,
    say of H(d-) below the bend, lies in a bent block that is its model
    block under d- joined with the reflected one under d+, whose images
    lie apart: its representative is a cycle there, which the projection
    keeps, so the projection is nonzero.  Two such projections have rank 2
    together, never 1.  So only a survivor in the bend takes an
    elimination, on the bend block alone, and none when that block has no
    homology; the pair is eliminated only when both survivors share a bend
    block of more than one class (with one, v and h give it rank 1).  The
    targets, (C, d-) graded by 2s - alex and (C, d+) by alex - 2s, z2 kept,
    pass the survivor's block and the boundary block next to it.  No level
    reads every generator, and nothing here reads d+ d-, so the table
    stays independent of the decomposition.

    The projections are chain maps whatever the columns, once d+ raises
    and d- lowers the grading by exactly one: the bent column of a
    generator below the bend is its d- column, kept by the low projection,
    and one above is its d+ column, which it kills; at the bend the low
    projection keeps the d- half.  The high projection is the mirror case.
    That is ``validate``'s shift check, which ``decompose`` requires here,
    so the chain-map check of ``induced_map_on_homology`` runs on the bend
    block's columns alone.
    """
    decompose(K)
    P, M = K.integer_maps
    gens, s2 = K.space.generators, 2 * s
    cols, blocks, ranks = _bend(K, s2)
    n, near = _classes(K, s2, ranks)
    rows, sides = [], []
    for sign, ((a, z),) in zip((-1, 1), K.report.homology_blocks):
        if a != s2 or (0, z) not in near:  # no elimination (see above)
            rows.append(sign * (a - s2) > 0)
            continue
        block = blocks[0, z]
        source = {i: cols[i] for i in block}, {(0, z): block}, {(0, z): ranks.get((0, z), 0)}
        f = {i: {i: 1} if sign * (gens[i].alex - s2) >= 0 else {}
             for i in set(block).union(*source[0].values())}
        boundary = K.blocks.get((s2 - 2 * sign, 1 - z), [])
        target = f, M if sign < 0 else P, {(0, z): block, (-2, 1 - z): boundary}, {(0, z)}
        sides.append((source, target))
        rows.append(induced_map_on_homology(*source, [target]) > 0)
    v, h = rows
    if not (v and h and len(sides) == 2 and sides[0][1][3] == sides[1][1][3]):
        return n, v, h, False
    (source, low), (_, high) = sides
    (block,) = low[3]
    return n, v, h, near[block] == 1 or induced_map_on_homology(*source, [low, high]) == 1


class SurgeryResult(NamedTuple):
    knot: str
    p: int
    q: int
    dimension: int
    pathway: str  # decomposition
    per_grading: Optional[tuple] = None  # ((grading, dim or None), ...) for slope 0

    @property
    def slope(self) -> str:
        return "0" if self.p == 0 else f"{self.p}/{self.q}"

    def to_json_dict(self) -> dict:
        return {
            "knot": self.knot,
            "slope": self.slope,
            "p": self.p,
            "q": self.q,
            "dim": self.dimension,
            "pathway": self.pathway,
            "per_grading": (None if self.per_grading is None
                            else {str(s): d for s, d in self.per_grading}),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "SurgeryResult":
        pg = data.get("per_grading")
        per = None if pg is None else tuple(sorted((int(k), v) for k, v in pg.items()))
        return SurgeryResult(data["knot"], data["p"], data["q"], data["dim"],
                             data["pathway"], per)


class ConeProblem(NamedTuple):
    """The truncated cone at slope p/q: sources to one-dimensional slots, by level.

    sources: the doubled indices, in lattice order; targets: the retained
    slots; levels: {s': (class count, v, h, line)}, the shapes of
    ``pi_maps``.  Each level s' has the q sources 2 s' q - (q-1), ...,
    2 s' q + (q-1), and each carries the level's classes and rows.  Source
    sigma reaches the slots sigma (v) and sigma + 2p (h), where the row is
    nonzero and the slot retained, and nothing else, so the incidence graph
    is a disjoint union of paths, which is what makes the dimension
    independent of the slot-identification scalars.
    """
    p: int
    q: int
    sources: range
    targets: range
    levels: dict

    def dimension(self) -> int:
        """ker + coker of the cone map, ranked in one pass over the sources.

        Each source's block [v row; h row] spans, inside its two slots,
        nothing (no row), one slot (one row: that slot is grounded), both
        slots (independent rows: both grounded), or a line through both
        (proportional rows: an edge).  Edges join the slots into paths; a
        path of k slots has rank k - 1, or k once any of its slots is
        grounded.  So rank = |targets| - (paths with no grounded slot) =
        edges + (paths with a grounded slot).  The v slot sigma is retained
        iff sigma >= targets.start, and the h slot sigma + 2p iff
        sigma <= sources.stop - 1 - 2p.  An edge's lower slot is the upper
        slot of the edge before it on its path, whose source comes earlier
        in lattice order.  So one pass over the sources in that order names
        each edge's upper slot by the lowest slot of its path (``head``),
        and a slot is grounded only once its edge from below, if any, has
        been seen, so ``grounded`` collects paths.  The levels are visited
        in ascending order, whatever the order of ``levels``, and each
        level's shape serves all q of its sources.
        """
        q, p2 = self.q, 2 * self.p
        v_from, h_to = self.targets.start, self.sources.stop - 1 - p2
        head: dict = {}  # upper slot of an edge -> lowest slot of its path
        grounded = set()  # lowest slots of the paths with a grounded slot
        classes = 0
        for s, (n, has_v, has_h, line) in sorted(self.levels.items()):
            classes += n * q
            for sigma in range(2 * s * q - (q - 1), 2 * s * q + q, 2):
                v = has_v and sigma >= v_from
                h = has_h and sigma <= h_to
                if v and h and line:
                    lo, hi = (sigma, sigma + p2) if p2 > 0 else (sigma + p2, sigma)
                    head[hi] = head.get(lo, lo)
                    continue
                if v:
                    grounded.add(head.get(sigma, sigma))
                if h:
                    grounded.add(head.get(sigma + p2, sigma + p2))
        r = len(head) + len(grounded)
        return (classes - r) + (len(self.targets) - r)


def _check_level_cells(K: KnotComplex, levels: Sequence[int]):
    """PreconditionError, naming the limit, when filling these levels would pass MAX_LEVEL_CELLS."""
    if min(len(levels), 2 * K.genus + 3) * K.dim <= MAX_LEVEL_CELLS:
        return  # within the limit even if every entry of the table is new
    edge = K.genus + 1
    new = {min(max(s, -edge), edge) for s in levels} - K.levels.keys()
    if (cells := len(new) * K.dim) > MAX_LEVEL_CELLS:
        raise PreconditionError(
            f"the level table needs {len(new)} levels of a {K.dim}-generator model, {cells} "
            f"cells, over the limit MAX_LEVEL_CELLS = {MAX_LEVEL_CELLS}")


def _fill_levels(K: KnotComplex, keys: Sequence[int]) -> dict:
    """K.levels, with the shape (see ``pi_maps``) of each level in keys computed where it is missing.

    Levels past the genus repeat: below -genus the bent complex is d+ alone,
    v is zero and h an isomorphism, and above +genus the reverse.  So the
    table holds the levels -genus - 1..genus + 1, and every level past one
    end reads that end's entry.  The keys must lie in that range.
    """
    table = K.levels
    if new := [s for s in keys if s not in table]:
        _check_level_cells(K, new)
        for s in new:
            table[s] = pi_maps(K, s)
    return table


def build_cone_problem(K: KnotComplex, p: int, q: int, window_margin: int = 0) -> ConeProblem:
    """Assemble the truncated cone for slope p/q (p != 0, q >= 1, gcd(|p|, q) = 1).

    The sources are the doubled indices 2 s' q + offset for levels
    1 - W <= s' <= W - 1 and offsets -(q-1), -(q-3), ..., q-1: every second
    integer from the lowest to the highest.  Source sigma collapses to level
    s', and its rows reach the slots sigma and sigma + 2p; the retained
    slots run from the lowest source plus 2p to the highest source.  Only
    the window's level rows are kept.  The slope is checked as
    ``thin_surgery_formula`` checks it.
    """
    if p == 0:
        raise PreconditionError("slope 0: use zero_surgery_dims for the per-grading table")
    _check_slope(p, q)
    g = max(K.genus, 1)
    w_min = g
    if p > 0:
        w_min = max(w_min, (p + q - 1) // (2 * q) + 1)
    W = w_min + max(0, window_margin)
    check_lattice_slots((2 * W - 1) * q)
    edge = K.genus + 1
    keys = range(max(1 - W, -edge), min(W, edge + 1))
    table = _fill_levels(K, keys)
    levels = {s: table[s] for s in keys}
    if W > edge + 1:  # the levels past the genus repeat the edge entries
        levels = {**dict.fromkeys(range(1 - W, -edge), table[-edge]), **levels,
                  **dict.fromkeys(range(edge + 1, W), table[edge])}

    first = 2 * (1 - W) * q - (q - 1)
    last = 2 * (W - 1) * q + (q - 1)
    return ConeProblem(p, q, range(first, last + 1, 2), range(first + 2 * p, last + 1, 2), levels)


def large_surgery_start(K: KnotComplex) -> int:
    """Smallest integral slope of the large-surgery regime: 2 * genus - 1, at least 1."""
    return max(2 * K.genus - 1, 1)


def large_surgery_dim(K: KnotComplex, n: int) -> int:
    """Direct sum of the bent homologies at the n levels just below the genus.

    Equals the cone dimension at integral slope n >= large_surgery_start(K).
    """
    decompose(K)
    if n < large_surgery_start(K):
        raise PreconditionError(f"slope {n} is outside the large-surgery regime "
                                f"(needs n >= {large_surgery_start(K)})")
    g = K.genus
    levels = range(max(g - n, -g - 1), g)
    table = _fill_levels(K, levels)
    total = sum(table[s][0] for s in levels)
    if n > 2 * g + 1:  # each level below -genus - 1 has the rows of -genus - 1
        total += (n - 2 * g - 1) * table[-g - 1][0]
    return total


def surgery_dim(K: KnotComplex, p: int, q: int) -> SurgeryResult:
    """Dimension of the surgery invariant at slope p/q on an S^3-knot model.

    Answered from ``decompose(K)`` by the thin formula, whatever the slope
    (pathway "decomposition"); see the module docstring.  The formula checks
    the slope: q >= 1 and gcd(|p|, q) = 1.
    """
    if p == 0:
        raise PreconditionError("slope 0: use zero_surgery_dims for the per-grading table")
    tau, _ = decompose(K)
    return SurgeryResult(K.name, p, q, thin_surgery_formula(K.dim, tau, p, q), "decomposition")


def zero_surgery_dims(K: KnotComplex, span: Optional[int] = None) -> dict:
    """Per-grading dimensions of the zero-surgery invariant, read off ``decompose(K)``.

    Returns {grading: dim} for |grading| <= span (default genus - 1).  Slot s
    has dimension 2 [|s| < |tau|] + 2 (squares centred at s): the staircase
    adds 2 at each level strictly inside it (one class and no row for
    tau > 0, three classes and two independent rows for tau < 0), and a
    square adds its two classes, with no rows, at its centre.  The grading-0
    slot is None ("undetermined") when tau = 0, where the slot
    identification scalar is not pinned down.  The table of mirror(K) is
    this one re-indexed by s -> -s.  ``zero_surgery_levels`` is the oracle.
    """
    tau, squares = decompose(K)
    top = (K.genus - 1) if span is None else span
    return {s: None if s == 0 and tau == 0
            else 2 * (abs(s) < abs(tau)) + 2 * (squares.get((s, 1), 0) + squares.get((s, -1), 0))
            for s in range(-top, top + 1)}


def zero_surgery_levels(K: KnotComplex, span: Optional[int] = None) -> dict:
    """``zero_surgery_dims`` read from K's own level table: the oracle of the closed form.

    Slot s is ker + coker of the row v + c h of level s into one dimension,
    c being the slot identification scalar.  That depends on c exactly when
    the two rows are proportional (rows with h = lambda v vanish at
    c = -1/lambda), so such a level raises PreconditionError.  The grading-0
    slot is None ("undetermined") when tau = 0, where c is not pinned down.
    """
    decompose(K)
    edge = K.genus + 1
    top = (K.genus - 1) if span is None else span
    table = _fill_levels(K, [s for s in range(max(-top, -edge), min(top, edge) + 1) if s or K.tau])
    out: dict = {}
    for s in range(-top, top + 1):
        if s == 0 and K.tau == 0:
            out[0] = None
            continue
        n, v, h, line = table[min(max(s, -edge), edge)]
        if line:
            raise PreconditionError(
                f"zero-surgery slot at grading {s} is scalar-dependent; hypothesis violated")
        r = 1 if v or h else 0
        out[s] = (n - r) + (1 - r)
    return out


def genus_one_positive_ladder(K: KnotComplex, m: int) -> int:
    """Positive integral surgeries on a genus-one model grow by one per step.

    Anchored on the level table: slope 1 = 2 genus - 1 is in the
    large-surgery regime, so the first rung is the bent homology at level 0.
    """
    if K.genus != 1:
        raise PreconditionError(f"ladder requires genus 1, got genus {K.genus}")
    if m < 1:
        raise PreconditionError("ladder requires a positive integral slope")
    return large_surgery_dim(K, 1) + (m - 1)


class ScanResult(NamedTuple):
    verdict: str  # lspace | almost | neither
    witness: Optional[int]
    dims: tuple  # ((n, dim), ...)

    def to_json_dict(self) -> dict:
        return {"verdict": self.verdict, "witness": self.witness,
                "dims": {str(n): d for n, d in self.dims}}


def almost_lspace_scan(K: KnotComplex) -> ScanResult:
    """Scan small positive integral slopes for (next-to-)minimal dimensions.

    Once dim = n (resp. n + 2) holds at one n past twice-genus-minus-one it
    holds for all larger n, so the finite scan is conclusive.
    """
    dims = []
    lspace_witness = None
    almost_witness = None
    for n in range(1, 2 * K.genus + 4):
        d = surgery_dim(K, n, 1).dimension
        dims.append((n, d))
        if d == n and lspace_witness is None:
            lspace_witness = n
        if d == n + 2 and almost_witness is None:
            almost_witness = n
    if lspace_witness is not None:
        return ScanResult("lspace", lspace_witness, tuple(dims))
    if almost_witness is not None:
        return ScanResult("almost", almost_witness, tuple(dims))
    return ScanResult("neither", None, tuple(dims))
