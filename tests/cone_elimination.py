"""Exact-elimination oracle for the cone sweep of ``ConeProblem.dimension``.

``elimination_dimension`` assembles the cone matrix as a SparseExactMap,
one column per source class and one row per retained slot, with each
source's h row scaled by a chosen nonzero scalar, and ranks it with
``linalg.rank``.  Slot identifications are fixed only up to such scalars,
so the dimension must not depend on them.  ``block_kinds`` names the shape
of each source's block, for tests that must reach every kind.
``check_path_structure`` asserts the shape the sweep relies on; the test
suite applies it to every cone it ranks (see ``conftest.py``).
"""
from knotsurgery.linalg import rank, space, sparse_map


def elimination_dimension(prob, h_scale=None) -> int:
    """ker + coker of the assembled cone matrix; h_scale maps a source to its h scalar."""
    check_path_structure(prob)
    h_scale = h_scale or {}
    cols = space([(f"s{sigma}_{j}", 0, 0) for sigma, n in prob.sources for j in range(n)])
    rows = space([(f"t{t}", 0, 0) for t in prob.targets])
    acc = {}
    for comp, scale in ((prob.v_components, {}), (prob.h_components, h_scale)):
        for src, (tgt, row) in comp.items():
            c = scale.get(src, 1)
            for j, val in row.items():
                key = (f"t{tgt}", f"s{src}_{j}")
                acc[key] = acc.get(key, 0) + c * val
    r = rank(sparse_map(cols, rows, [(t, s, v) for (t, s), v in acc.items() if v]))
    return (cols.dim - r) + (rows.dim - r)


def block_kinds(prob) -> set:
    """Kinds of the source blocks: zero, v-only, h-only, edge (rank 1 on two slots), rank 2."""
    kinds = set()
    for sigma, n in prob.sources:
        v = prob.v_components.get(sigma)
        h = prob.h_components.get(sigma)
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
    for comp in (prob.v_components, prob.h_components):
        for tgt, _ in comp.values():
            incoming[tgt] = incoming.get(tgt, 0) + 1
    assert all(n <= 2 for n in incoming.values()), "cone incidence graph is not a union of paths"
