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

The cone is ranked without elimination, and without visiting its sources
one by one.  Source sigma reaches only the slots sigma and sigma + 2p, so
the incidence graph is a disjoint union of paths, and the rank is edges +
grounded rows - paths grounded at both ends.  Consecutive window levels
of equal shape, read straight off the model's table, make runs of
sources, and all three terms are counted per run, the last by shifting
the runs by |p| (see ``ConeProblem.dimension``).  The cost depends on the
table's levels alone, not on q, p or the window's far levels, so no limit
bounds a cone's slots: the spec limits bound the table, and
``cli.MAX_ARG_DIGITS`` bounds a slope.

Sign conventions are calibrated by two anchors: the right trefoil must give
dimension 1 at slope +1 and the figure-eight 3.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, Optional

from .formulas import _check_slope, thin_surgery_formula
from .knotcx import KnotComplex, PreconditionError, decompose
from .linalg import block_ranks, homology, induced_map_on_homology


def bent_homology(K: KnotComplex, s: int) -> int:
    """Class count of level s, read off ``level_table``; ModelError if K is invalid.

    A level past +-(genus + 1) reads that end's entry.
    """
    decompose(K)
    edge = K.genus + 1
    return level_table(K)[min(max(s, -edge), edge)][0]


def pi_maps(K: KnotComplex, s: int) -> tuple:
    """The shape (n, v, h, line) of level s, read off integer ranks; ModelError if K is invalid.

    n is the class count (``bent_homology``).  v and h say whether the
    induced projections of the bent homology to H(d-) (onto levels <= s)
    and to H(d+) (onto levels >= s) are nonzero; line says that both are
    and that they are proportional, the pair (v, h) having rank 1.  The
    level reads ``K.report``, ``K.blocks`` and ``K.integer_maps`` once each.

    The class count takes one elimination, of the bend: the model blocks
    (s2, z) at doubled grading s2 = 2s under d+ + d-, the bent blocks
    (0, z).  d+ and d- send a column to different gradings, so its
    (d+ + d-) column is the two joined.  The bent block (k, z), k > 0, is
    the model block (s2 + k, z) under d+ and (s2 - k, z) under d-, whose
    images lie apart, so its rank is the sum of theirs (``K.report.ranks``).
    For k >= 4 the rank into it is also the model's, so its dim H is dim
    H(d+) at s2 + k plus dim H(d-) at s2 - k: the one class of H(d+) when
    it lies at s2 + 4 or above, and of H(d-) at s2 - 4 or below.  Only the
    blocks k = 0 and 2, next to the bend, are counted with ``homology``;
    zeros are left out.

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
    report, model_blocks, (P, M) = K.report, K.blocks, K.integer_maps
    (minus, plus), survivors, s2 = report.ranks, report.homology_blocks, 2 * s
    ((a_m, _),), ((a_p, _),) = survivors
    blocks = {(0, z): model_blocks.get((s2, z), []) for z in (0, 1)}
    cols = {i: {**P[i], **M[i]} for positions in blocks.values() for i in positions}
    ranks = block_ranks(cols, blocks)
    sizes, near_ranks = {}, dict(ranks)
    for z in (0, 1):
        sizes[0, z] = len(blocks[0, z])
        sizes[2, z] = len(model_blocks.get((s2 + 2, z), ())) + len(model_blocks.get((s2 - 2, z), ()))
        near_ranks[2, z] = plus.get((s2 + 2, z), 0) + minus.get((s2 - 2, z), 0)
    near = homology(sizes, near_ranks, 2)
    n = sum(near.values()) + (a_p >= s2 + 4) + (a_m <= s2 - 4)
    gens, rows, sides = K.space.generators, [], []
    for sign, ((a, z),) in zip((-1, 1), survivors):
        if a != s2 or (0, z) not in near:  # no elimination (see above)
            rows.append(sign * (a - s2) > 0)
            continue
        block = blocks[0, z]
        source = {i: cols[i] for i in block}, {(0, z): block}, {(0, z): ranks.get((0, z), 0)}
        f = {i: {i: 1} if sign * (gens[i].alex - s2) >= 0 else {}
             for i in set(block).union(*source[0].values())}
        boundary = model_blocks.get((s2 - 2 * sign, 1 - z), [])
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

    The window is the levels 1 - window, ..., window - 1; each level s' has
    the q sources 2 s' q - (q-1), ..., 2 s' q + (q-1), in lattice order,
    and each carries the classes and rows of its shape in ``levels``, the
    model's own table {s: (class count, v, h, line)} of ``pi_maps``.  A
    window level past +-edge reads the entry at +-edge.  Source sigma
    reaches the slots sigma (v) and sigma + 2p (h), where the row is
    nonzero and the slot retained, and nothing else, so the incidence graph
    is a disjoint union of paths, which is what makes the dimension
    independent of the slot-identification scalars.
    """
    p: int
    q: int
    window: int
    edge: int
    levels: dict

    @property
    def sources(self) -> range:
        """The doubled source indices, in lattice order."""
        q, W = self.q, self.window
        return range(2 * (1 - W) * q - (q - 1), 2 * (W - 1) * q + q, 2)

    @property
    def targets(self) -> range:
        """The retained slots: from the lowest source plus 2p to the highest source."""
        sources = self.sources
        return range(sources.start + 2 * self.p, sources.stop, 2)

    def dimension(self) -> int:
        """ker + coker of the cone map, ranked by runs of equal levels.

        Number the sources 0..N-1 in lattice order, N = (2 window - 1) q,
        and the slots so that source i reaches slot i (v) and i + p (h);
        the retained slots are p..N-1, so the v slot is retained iff i >= p
        and the h slot iff i < N - p.  Each source's block [v row; h row]
        spans, inside its retained slots, nothing, one slot (that slot is
        grounded), both slots (independent rows: both grounded), or a line
        through both (proportional rows: an edge).  Edges join the slots
        into paths along the chains of step |p|; a path of k slots has rank
        k - 1, or k once any of its slots is grounded.  So rank = edges +
        (paths with a grounded slot).  Only a path's end slots take a
        grounded row: the bottom one from the source below it, by that
        source's upper row (h for p > 0, v for p < 0), and the top one from
        the source at it, by its lower row.  So rank = edges + grounded
        rows - (paths grounded at both ends), and such a path pairs a
        non-edge source whose upper row is grounded with the next non-edge
        source up its chain, when that one's lower row is grounded.

        Consecutive window levels of equal shape merge into runs, the far
        levels joining the end entries' runs.  A run's sources, cut where
        retention changes (at p and N - p, for p > 0), make pieces of one
        kind (an edge, or which rows are grounded), so the classes, edges
        and grounded rows are counted per piece.  The pairs are counted by
        shifting each piece whose upper rows are grounded by |p| and
        overlapping it with the pieces.  Only the sources that land in an
        edge piece walk on up their chains, and together: each jumps the
        whole piece in one step, and as no two of them share a chain they
        are at most |p| consecutive sources, which land in the |p| sources
        after the piece as at most two intervals.  An interval's ends are
        the pieces' ends shifted, so the work is bounded by the square of
        the number of pieces, whatever q, p and the far levels.  The
        targets are counted as N - p, with no len() of their range.
        """
        p, q, W, edge, levels = self
        total = (2 * W - 1) * q
        step, top, rising = abs(p), total - p, p > 0
        low, high = max(1 - W, -edge), min(W - 1, edge)  # the far levels join the end entries
        classes = edges = grounded = pairs = 0
        # the pieces of one kind, each level's run cut where retention changes, by their
        # bounds: lower is None for edges, else whether the lower row is grounded; walkers
        # are the sources one step up the chains from the grounded upper rows
        bounds, lower, walkers = [], [], []
        lo, shape = 0, levels[low]
        for s in range(low + 1, high + 2):  # a run of equal levels ends before s
            if s <= high:
                following = levels[s]
                if following == shape:
                    continue
                stop = (s + W - 1) * q
            else:
                following, stop = None, total
            n, has_v, has_h, line = shape
            classes += n * (stop - lo)
            while lo < stop:
                hi = stop  # the retained slots cut a row at sources p and N - p, if p > 0
                if has_v and lo < p < hi:
                    hi = p
                if has_h and lo < top < hi:
                    hi = top
                v, h = has_v and lo >= p, has_h and lo < top
                bounds.append(lo)
                if v and h and line:
                    edges += hi - lo
                    lower.append(None)
                else:
                    grounded += (v + h) * (hi - lo)
                    lower.append(v if rising else h)
                    if (h if rising else v) and lo + step < total:
                        walkers.append((lo + step, hi + step))
                lo = hi
            shape = following
        bounds.append(total)
        while walkers:
            lo, hi = walkers.pop()
            hi, j = min(hi, total), bisect_right(bounds, lo) - 1
            while lo < hi:
                end = bounds[j + 1]
                if lower[j] is None:  # each jumps the piece, landing in the |p| sources after it
                    n = min(hi, end) - lo
                    y = lo + (end - lo + step - 1) // step * step
                    walkers += [(y, min(y + n, end + step)), (end, y + n - step)]
                elif lower[j]:
                    pairs += min(hi, end) - lo
                lo, j = end, j + 1
        r = edges + grounded - pairs
        return (classes - r) + (top - r)


def level_table(K: KnotComplex) -> dict:
    """K.levels, filled: the shape (see ``pi_maps``) of each level -genus - 1..genus + 1.

    Levels past the genus repeat: below -genus the bent complex is d+ alone,
    v is zero and h an isomorphism, and above +genus the reverse.  So the
    table holds the levels -genus - 1..genus + 1, and every level past one
    end reads that end's entry.  An entry already present is kept, so each
    level is computed once per model, by one ``pi_maps`` call.  This is the
    only writer of ``K.levels`` and writes no other level, so a table of
    2 genus + 3 entries is complete and is returned as it is, with no scan.

    No limit of its own bounds the table: the spec limits that bound
    ``validate`` bound it too.  A generator is a bend column at one level
    only, and only a level whose bend holds a survivor eliminates again, so
    the whole table ranks each model block about once more than ``validate``.
    """
    table = K.levels
    if len(table) < 2 * K.genus + 3:
        for s in range(-K.genus - 1, K.genus + 2):
            if s not in table:
                table[s] = pi_maps(K, s)
    return table


def build_cone_problem(K: KnotComplex, p: int, q: int, window_margin: int = 0) -> ConeProblem:
    """Assemble the truncated cone for slope p/q (p != 0, q >= 1, gcd(|p|, q) = 1).

    The window is the levels 1 - W <= s' <= W - 1, W being at least the
    genus and 1 and, for p > 0, past p / 2q, plus window_margin.  Its
    sources are the doubled indices 2 s' q + offset for offsets -(q-1),
    -(q-3), ..., q-1: every second integer from the lowest to the highest.
    Source sigma collapses to level s', and its rows reach the slots sigma
    and sigma + 2p; the retained slots run from the lowest source plus 2p
    to the highest source.  The record reads the model's ``level_table``
    itself, with no copy, a window level past +-(genus + 1) reading the
    entry at that end.  The slope is checked as ``thin_surgery_formula``
    checks it.  No limit bounds the window: the rank's cost does not grow
    with it (``ConeProblem.dimension``).
    """
    if p == 0:
        raise PreconditionError("slope 0: use zero_surgery_dims for the per-grading table")
    _check_slope(p, q)
    w_min = max(K.genus, 1, (p + q - 1) // (2 * q) + 1 if p > 0 else 1)
    return ConeProblem(p, q, w_min + max(0, window_margin), K.genus + 1, level_table(K))


def large_surgery_start(K: KnotComplex) -> int:
    """Smallest integral slope of the large-surgery regime: 2 * genus - 1, at least 1."""
    return max(2 * K.genus - 1, 1)


def large_surgery_dim(K: KnotComplex, n: int) -> int:
    """Direct sum of the bent homologies at the n levels g - n..g - 1 just below the genus g.

    The class counts are read off ``level_table``; each level below
    -genus - 1 has the count of -genus - 1.  Equals the cone dimension at
    integral slope n >= large_surgery_start(K).
    """
    decompose(K)
    if n < large_surgery_start(K):
        raise PreconditionError(f"slope {n} is outside the large-surgery regime "
                                f"(needs n >= {large_surgery_start(K)})")
    g, table = K.genus, level_table(K)
    low = max(g - n, -g - 1)
    return sum(table[s][0] for s in range(low, g)) + (low - (g - n)) * table[-g - 1][0]


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
    table = level_table(K)
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
