"""The rational validation and decomposition that ``knotcx`` replaced: the oracle of its integer pass.

``validate_rational`` is ``knotcx.validate`` as it was before the one
integer pass: it forms d+ d+, d- d- and d+ d- + d- d+ in ``Fraction``-capable
arithmetic through ``map_reads.apply``, and ranks each (grading, z2)
block with a fresh rational ``level_oracle.Echelon``.  The grading
dimensions and the Euler characteristic come from its own walk over the
generators (``dims_by_grading``, ``euler_characteristic``), not from
``K.blocks``.  ``decompose_rational`` forms the d+ d- columns again and
ranks them the same way.  The tests hold the integer pass to the same
violation lists, in order, and the same decompositions.
"""
from knotsurgery.knotcx import Decomposition, KnotComplex, ModelError, Poly
from knotsurgery.linalg import GradedSpace, SparseExactMap
from level_oracle import Echelon
from map_reads import apply, column, generator


def validate_rational(K: KnotComplex) -> list:
    """The violations of K, in the order and words of ``knotcx.validate``."""
    violations = []
    sp = K.space

    def check_square(d: SparseExactMap, label: str):
        for gid in sp.ids:
            if apply(d, column(d, gid)):
                violations.append(f"{label}^2 != 0 (witness {gid})")
                return

    check_square(K.d_plus, "d+")
    check_square(K.d_minus, "d-")

    for d, label, sgn in ((K.d_plus, "d+", 1), (K.d_minus, "d-", -1)):
        for tgt, src, _ in d.entries:
            gs, gt = generator(sp, src), generator(sp, tgt)
            if gt.alex - gs.alex != 2 * sgn:
                violations.append(
                    f"{label} shifts grading of {src} by {(gt.alex - gs.alex) / 2}, expected {sgn}")
                break
            if gt.z2 == gs.z2:
                violations.append(f"{label} does not flip the Z/2 grading on {src}")
                break

    for gid in sp.ids:
        w = apply(K.d_minus, column(K.d_plus, gid))
        if apply(K.d_plus, column(K.d_minus, gid)) != {r: -c for r, c in w.items()}:
            violations.append(f"d+d- + d-d+ != 0 (witness {gid})")
            break

    dims = dims_by_grading(sp)
    for a, n in dims.items():
        if dims.get(-a, 0) != n:
            violations.append(f"grading dims asymmetric: {n} at {a / 2} vs {dims.get(-a, 0)} at {-a / 2}")
            break
    top = max((abs(a) for a in dims), default=0)
    if top > 2 * K.genus:
        violations.append(f"generator beyond genus: |grading| {top / 2} > genus {K.genus}")
    if K.genus > 0 and dims.get(2 * K.genus, 0) < 1:
        violations.append(f"no generator at the top grading {K.genus}")

    half = next((g.gid for g in sp.generators if g.alex % 2), None)
    delta = K.delta()
    if half is not None:
        violations.append(f"generator {half!r} sits at a half-integer grading")
    elif delta is not None:
        chi = euler_characteristic(K)
        neg = {p: -c for p, c in chi.items()}
        if chi != delta and neg != delta:
            violations.append("graded Euler characteristic does not match the attached polynomial")

    if violations:
        return violations
    blocks = _blocks(K)
    homology_blocks = []
    for d, shift in ((K.d_minus, -2), (K.d_plus, 2)):
        out = _block_ranks(blocks, lambda gid: column(d, gid), shift)
        homology_blocks.append({
            (a, z): n for (a, z), ids in blocks.items()
            if (n := len(ids) - out.get((a, z), 0) - out.get((a - shift, 1 - z), 0))})
    hm_dim, hp_dim = (sum(h.values()) for h in homology_blocks)
    if hp_dim != 1 or hm_dim != 1:
        violations.append(f"one-differential homology dims ({hp_dim}, {hm_dim}) "
                          "differ from the ambient value 1")
        return violations
    (alex_m, _), (alex_p, _) = (next(iter(h)) for h in homology_blocks)
    if alex_m != -alex_p:
        violations.append("survivor classes are not at opposite integer gradings")
    elif alex_m // 2 != K.tau:
        violations.append(f"recorded tau {K.tau} differs from survivor grading {alex_m // 2}")
    return violations


def dims_by_grading(sp: GradedSpace) -> dict:
    """{doubled grading: number of generators there}, in the order the gradings first appear."""
    out: dict = {}
    for g in sp.generators:
        out[g.alex] = out.get(g.alex, 0) + 1
    return out


def euler_characteristic(K: KnotComplex) -> Poly:
    """Signed generator count per true grading, zeros left out; K must have integer gradings."""
    out: Poly = {}
    for g in K.space.generators:
        out[g.alex // 2] = out.get(g.alex // 2, 0) + (-1) ** g.z2
    return {p: c for p, c in out.items() if c}


def decompose_rational(K: KnotComplex) -> Decomposition:
    """``knotcx.decompose`` from the ranks of the d+ d- columns, formed again; K must be valid."""
    ranks = _block_ranks(_blocks(K), lambda gid: apply(K.d_plus, column(K.d_minus, gid)), 0)
    squares = {(alex // 2, 1 if z2 else -1): n for (alex, z2), n in ranks.items()}
    expected = 2 * abs(K.tau) + 1 + 4 * sum(squares.values())
    if K.dim != expected:
        raise ModelError(f"internal: model dimension {K.dim} differs from 2|tau| + 1 + 4k = "
                         f"{expected} for tau {K.tau} and its squares")
    return Decomposition(K.tau, squares)


def _blocks(K: KnotComplex) -> dict:
    blocks: dict = {}
    for g in K.space.generators:
        blocks.setdefault((g.alex, g.z2), []).append(g.gid)
    return blocks


def _block_ranks(blocks: dict, image, shift: int) -> dict:
    """{block: rank of the images of its generators}, blocks of rank 0 left out.

    ``image(gid)`` is the image of one generator under a map that sends the
    block (a, z2) into the block (a + shift, z2 + shift / 2 mod 2).
    """
    ranks = {}
    for (alex, z2), ids in blocks.items():
        images = [im for im in map(image, ids) if im]
        if images:
            solver = Echelon(blocks[(alex + shift, (z2 + shift // 2) % 2)])
            for im in images:
                solver.insert(im)
            ranks[(alex, z2)] = solver.rank
    return ranks
