"""Models and model comparisons that only the tests use."""
import random

from knotsurgery.knotcx import (
    KnotComplex,
    SquareSpec,
    StaircaseSpec,
    assemble,
    build_square,
    build_staircase,
    chi_graded,
)
from knotsurgery.linalg import space, sparse_map
from validation_oracle import dims_by_grading


def knot_spec_dict(K: KnotComplex) -> dict:
    """Serialize a model into the explicit knot-spec format that ``parse_knot_spec`` reads."""
    return {
        "name": K.name,
        "generators": [{"id": g.gid, "alex": g.alex // 2, "z2": g.z2}
                       for g in K.space.generators],
        "d_plus": [[src, tgt, v.numerator, v.denominator] for tgt, src, v in K.d_plus.entries],
        "d_minus": [[src, tgt, v.numerator, v.denominator] for tgt, src, v in K.d_minus.entries],
        "genus": K.genus,
        "tau": K.tau,
    }


def graded_signature(K: KnotComplex):
    """Isomorphism signature for thin models: per-grading dims, |chi|, tau."""
    chi = chi_graded(K)
    if sum(chi.values()) < 0:
        chi = {p: -c for p, c in chi.items()}
    return (tuple(sorted(dims_by_grading(K.space).items())), tuple(sorted(chi.items())), K.tau)


# Explicit knot spec of staircase(1) plus an isolated generator at grading 0,
# so H(d-) and H(d+) are two-dimensional.  It carries no polynomial, so the
# chi check never runs.
TWO_SURVIVORS_SPEC = {
    "generators": [{"id": "a1", "alex": -1, "z2": 0}, {"id": "a2", "alex": 0, "z2": 1},
                   {"id": "a3", "alex": 1, "z2": 0}, {"id": "extra", "alex": 0, "z2": 0}],
    "d_plus": [["a2", "a3", 1]],
    "d_minus": [["a2", "a1", 1]],
    "genus": 1, "tau": 1,
}


def half_level_squares_model() -> KnotComplex:
    """staircase(2) plus squares centred at gradings 1/2 and -1/2, sign -1.

    It carries no polynomial, so only ``validate``'s own grading check
    rejects it.
    """
    base = build_staircase(2)
    gens = [(g.gid, g.alex, g.z2) for g in base.space.generators]
    d_plus, d_minus = list(base.d_plus.entries), list(base.d_minus.entries)
    for shift, prefix in ((1, "x"), (-1, "y")):
        frag = build_square(0, -1, prefix=prefix)  # moved half a level (doubled gradings)
        gens += [(gid, alex + shift, z2) for gid, alex, z2 in frag["generators"]]
        d_plus += frag["d_plus"]
        d_minus += frag["d_minus"]
    sp = space(gens)
    return KnotComplex(sp, sparse_map(sp, sp, d_plus), sparse_map(sp, sp, d_minus),
                       genus=2, tau=2, meta=(("name", "half-level squares"),))


def squares_model(g: int, tau: int, seed: int) -> KnotComplex:
    """staircase(tau) plus two squares of seeded sign at every level strictly inside the genus."""
    rng = random.Random(seed)
    return assemble(StaircaseSpec(tau), [SquareSpec(s, rng.choice((-1, 1)))
                                         for s in range(1 - g, g) for _ in range(2)],
                    name=f"squares(g={g}, tau={tau})")


def wide_model(g: int, per_level: int) -> KnotComplex:
    """staircase(1) plus per_level squares at each level strictly inside genus g, signs alternating."""
    return assemble(StaircaseSpec(1), [SquareSpec(s, (-1) ** abs(s))
                                       for s in range(1 - g, g) for _ in range(per_level)],
                    name=f"wide(g={g}, {per_level} per level)")


def components(K: KnotComplex) -> list:
    """Connected components of the graph whose edges are the d+ and d- entries.

    Each component spans a summand of the model for both differentials.
    Returns one list of generators per component, in model order, the
    components ordered by their first generator.
    """
    parent = {gid: gid for gid in K.space.ids}

    def root(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for d in (K.d_plus, K.d_minus):
        for tgt, src, _ in d.entries:
            a, b = root(tgt), root(src)
            if a != b:
                parent[a] = b
    out: dict = {}
    for g in K.space.generators:
        out.setdefault(root(g.gid), []).append(g)
    return list(out.values())
