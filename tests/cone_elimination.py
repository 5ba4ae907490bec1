"""Exact-elimination oracle for the cone sweep of ``ConeProblem.dimension``.

``blocks`` rebuilds the cone's per-source blocks from its level table, its
slope and its retained slots.  ``elimination_dimension`` assembles the cone
matrix as a SparseExactMap, one column per source class and one row per
retained slot, with each source's h row scaled by a chosen nonzero scalar,
and ranks it with ``linalg.rank``.  Slot identifications are fixed only up
to such scalars, so the dimension must not depend on them.  ``block_kinds``
names the shape of each source's block, for tests that must reach every
kind.  ``check_path_structure`` asserts the shape the sweep relies on; the
test suite applies it to every cone it ranks (see ``conftest.py``).
"""
from knotsurgery.linalg import rank, space, sparse_map


def blocks(prob) -> list:
    """[(sigma, class count, (v slot, v row) or None, (h slot, h row) or None)] in lattice order."""
    out = []
    for s, (n, v_row, h_row) in prob.levels.items():
        for sigma in range(2 * s * prob.q - (prob.q - 1), 2 * s * prob.q + prob.q, 2):
            v = (sigma, v_row) if v_row and sigma in prob.targets else None
            ht = sigma + 2 * prob.p
            h = (ht, h_row) if h_row and ht in prob.targets else None
            out.append((sigma, n, v, h))
    assert [sigma for sigma, *_ in out] == list(prob.sources)
    return out


def h_sources(prob) -> list:
    """The sources whose h row reaches a retained slot, in lattice order."""
    return [sigma for sigma, _, _, h in blocks(prob) if h]


def elimination_dimension(prob, h_scale=None) -> int:
    """ker + coker of the assembled cone matrix; h_scale maps a source to its h scalar."""
    check_path_structure(prob)
    h_scale = h_scale or {}
    srcs = blocks(prob)
    cols = space([(f"s{sigma}_{j}", 0, 0) for sigma, n, _, _ in srcs for j in range(n)])
    rows = space([(f"t{t}", 0, 0) for t in prob.targets])
    acc = {}
    for sigma, _, v, h in srcs:
        for comp, c in ((v, 1), (h, h_scale.get(sigma, 1))):
            if comp:
                tgt, row = comp
                for j, val in row.items():
                    key = (f"t{tgt}", f"s{sigma}_{j}")
                    acc[key] = acc.get(key, 0) + c * val
    r = rank(sparse_map(cols, rows, [(t, s, v) for (t, s), v in acc.items() if v]))
    return (cols.dim - r) + (rows.dim - r)


def block_kinds(prob) -> set:
    """Kinds of the source blocks: zero, v-only, h-only, edge (rank 1 on two slots), rank 2."""
    kinds = set()
    for _, n, v, h in blocks(prob):
        if v and h:
            cols = space([(str(j), 0, 0) for j in range(n)])
            slots = space([("v", 0, 0), ("h", 0, 0)])
            block = sparse_map(cols, slots, [("v", str(j), c) for j, c in v[1].items()]
                               + [("h", str(j), c) for j, c in h[1].items()])
            kinds.add("edge" if rank(block) == 1 else "rank 2")
        else:
            kinds.add("v-only" if v else "h-only" if h else "zero")
    return kinds


def check_path_structure(prob):
    """Assert that no slot is reached by more than two rows, so the incidence graph is paths."""
    incoming = {}
    for _, _, v, h in blocks(prob):
        for comp in (v, h):
            if comp:
                incoming[comp[0]] = incoming.get(comp[0], 0) + 1
    assert all(n <= 2 for n in incoming.values()), "cone incidence graph is not a union of paths"
