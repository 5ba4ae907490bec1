"""Exact-elimination oracle for the ranked cone of ``ConeProblem.dimension``.

``window_levels`` reads the shape of each window level off the cone's
table, clamped to its edge entries, and ``blocks`` rebuilds the cone's
per-source blocks from them, its slope and its retained slots, in lattice
order.  ``assembled_dimension`` assembles the cone matrix as a
SparseExactMap, one column per source class and one row per retained
slot, from given rows of each level, with each source's h row scaled by a
chosen nonzero scalar, and ranks it with ``level_oracle.rank``.
``elimination_dimension`` does so with the rows that ``level_oracle``
computes for the model (each level's shape in the table must be theirs),
and ``generic_rows`` gives rows of any shape with random rational
entries.  Slot identifications are fixed only up to such scalars, so the
dimension must not depend on them.  ``block_kinds`` names the shape of
each source's block, for tests that must reach every kind.
``check_path_structure`` asserts the shape the rank relies on, per run of
levels; the test suite applies it to every cone it ranks (see
``conftest.py``).
"""
from fractions import Fraction

from knotsurgery.linalg import space, sparse_map
from level_oracle import level_rows, rank, shape


def window_levels(prob) -> dict:
    """{s: shape} for the window's levels, one past +-edge reading the entry at +-edge."""
    return {s: prob.levels[min(max(s, -prob.edge), prob.edge)]
            for s in range(1 - prob.window, prob.window)}


def blocks(prob) -> list:
    """[(sigma, level, v slot or None, h slot or None)] in lattice order, from the level flags."""
    out = []
    for s, (_, has_v, has_h, _) in window_levels(prob).items():
        for sigma in level_sources(prob, s, s):
            v = sigma if has_v and sigma in prob.targets else None
            ht = sigma + 2 * prob.p
            h = ht if has_h and ht in prob.targets else None
            out.append((sigma, s, v, h))
    assert [sigma for sigma, *_ in out] == list(prob.sources)
    return out


def _rows(K, prob) -> dict:
    """{level: (class count, v row, h row)} from the oracle, checked against the cone's shapes."""
    rows = {}
    for s, level in window_levels(prob).items():
        assert shape(K, s) == level, (K.name, s)
        rows[s] = level_rows(K, s)
    return rows


def h_sources(prob) -> list:
    """The sources whose h row reaches a retained slot, in lattice order."""
    return [sigma for sigma, _, _, h in blocks(prob) if h is not None]


def generic_rows(shape, rng) -> tuple:
    """(class count, v row, h row) of a level of this shape, with random nonzero rational entries.

    Independent rows differ from proportional ones in the entry of class 1
    alone, so they need two classes, as the shape does.
    """
    n, has_v, has_h, line = shape

    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9), rng.randrange(1, 5))

    v = {j: entry() for j in range(n)} if has_v else {}
    if not has_h:
        return n, v, {}
    if not has_v:
        return n, v, {j: entry() for j in range(n)}
    c = entry()
    h = {j: c * x for j, x in v.items()}
    if not line:
        h[1] += entry()
    return n, v, {j: x for j, x in h.items() if x}


def elimination_dimension(K, prob, h_scale=None) -> int:
    """ker + coker of the assembled cone matrix of K; h_scale maps a source to its h scalar."""
    return assembled_dimension(prob, _rows(K, prob), h_scale)


def assembled_dimension(prob, rows, h_scale=None) -> int:
    """ker + coker of the cone matrix whose level s has rows[s] = (class count, v row, h row)."""
    check_path_structure(prob)
    h_scale = h_scale or {}
    srcs = blocks(prob)
    cols = space([(f"s{sigma}_{j}", 0, 0) for sigma, s, _, _ in srcs for j in range(rows[s][0])])
    slots = space([(f"t{t}", 0, 0) for t in prob.targets])
    acc = {}
    for sigma, s, v, h in srcs:
        _, v_row, h_row = rows[s]
        for tgt, row, c in ((v, v_row, 1), (h, h_row, h_scale.get(sigma, 1))):
            if tgt is not None:
                for j, val in row.items():
                    key = (f"t{tgt}", f"s{sigma}_{j}")
                    acc[key] = acc.get(key, 0) + c * val
    r = rank(sparse_map(cols, slots, [(t, s, v) for (t, s), v in acc.items() if v]))
    return (cols.dim - r) + (slots.dim - r)


def block_kinds(K, prob) -> set:
    """Kinds of the source blocks: zero, v-only, h-only, edge (rank 1 on two slots), rank 2."""
    rows = _rows(K, prob)
    kinds = set()
    for _, s, v, h in blocks(prob):
        if v is not None and h is not None:
            n, v_row, h_row = rows[s]
            cols = space([(str(j), 0, 0) for j in range(n)])
            both = space([("v", 0, 0), ("h", 0, 0)])
            block = sparse_map(cols, both, [("v", str(j), c) for j, c in v_row.items()]
                               + [("h", str(j), c) for j, c in h_row.items()])
            kinds.add("edge" if rank(block) == 1 else "rank 2")
        else:
            kinds.add("v-only" if v is not None else "h-only" if h is not None else "zero")
    return kinds


def level_sources(prob, lo: int, hi: int) -> range:
    """The sources of the window levels lo..hi: q to a level s', 2 s' q - (q-1), ..., 2 s' q + (q-1)."""
    q = prob.q
    return range(2 * lo * q - (q - 1), 2 * hi * q + q, 2)


def check_path_structure(prob):
    """Assert that no slot is reached by more than two rows, so the incidence graph is paths.

    Works per run of levels, the far levels past +-edge joining the run of
    the entry they read, as in ``ConeProblem.dimension``, so its cost does
    not grow with q, p or the window.  A run's v and h slots are its sources
    translated by 0 and by 2p, cut to the retained slots, and a sweep over
    the ends of these intervals counts the rows that reach each slot.  The
    runs' sources must tile ``prob.sources`` in order.
    """
    W, edge, targets = prob.window, prob.edge, prob.targets
    low, high = max(1 - W, -edge), min(W - 1, edge)
    runs, ends = [], []
    for s in range(low, high + 1):
        run = level_sources(prob, 1 - W if s == low else s, W - 1 if s == high else s)
        _, has_v, has_h, _ = prob.levels[s]
        for reached, shift in ((has_v, 0), (has_h, 2 * prob.p)):
            lo, hi = max(run.start + shift, targets.start), min(run.stop + shift, targets.stop)
            if reached and lo < hi:
                ends += [(lo, 1), (hi, -1)]
        runs.append(run)
    depth = 0
    for _, step in sorted(ends):  # at a shared point one interval ends before the next starts
        depth += step
        assert depth <= 2, "cone incidence graph is not a union of paths"
    assert all(a[-1] + 2 == b.start for a, b in zip(runs, runs[1:])), "levels overlap or leave gaps"
    assert prob.sources == range(runs[0].start, runs[-1].stop, 2), "levels do not tile the sources"
