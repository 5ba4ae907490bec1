"""split-vs-full: the level table from the survivor component against the whole model.

``cone._level_rows`` ranks each level on the survivor component and adds
one class profile per acyclic shape.  The oracle here is the level table of
the whole model: ``pi_maps`` on K itself, with K's own H(d-) and H(d+).
Rows are taken over different class bases, so the comparison is of what
the cone depends on: class counts, which rows vanish, whether v and h are
proportional, and the cone dimension.
"""
import math
import random

import pytest

from knotsurgery import cone
from knotsurgery.catalog import thin_catalog
from knotsurgery.cone import build_cone_problem, pi_maps
from knotsurgery.knotcx import KnotComplex, SquareSpec, StaircaseSpec, assemble, components, mirror
from test_properties import random_thin_models, scramble

SLOPES = [(p, q) for q in range(1, 8) for p in range(-9, 10) if p and math.gcd(abs(p), q) == 1]


def full_level_rows(K, s):
    """(class count, v row, h row) at level s from the whole model."""
    v, h = pi_maps(K, s)
    order = {cid: i for i, cid in enumerate(v.source.ids)}
    return (v.source.dim, {order[src]: val for _, src, val in v.entries},
            {order[src]: val for _, src, val in h.entries})


def _squares_model(g, tau, seed):
    """Two squares of seeded sign at every level strictly inside the genus."""
    rng = random.Random(seed)
    return assemble(StaircaseSpec(tau), [SquareSpec(s, rng.choice((-1, 1)))
                                         for s in range(1 - g, g) for _ in range(2)],
                    name=f"squares(g={g}, tau={tau})")


def _models():
    catalog = [M for K in thin_catalog() for M in (K, mirror(K))]
    randoms = random_thin_models(16, seed=5)
    squares = [_squares_model(4, tau, seed) for seed, tau in enumerate((-2, 0, 1))]
    rng = random.Random(17)
    scrambled = [scramble(K, rng) for K in randoms[:8] + squares + catalog[::5]]
    return catalog + randoms + squares + scrambled


MODELS = _models()


def _kind(v_row, h_row):
    if v_row and h_row:
        return "edge" if cone._proportional(v_row, h_row) else "rank 2"
    return "v-only" if v_row else "h-only" if h_row else "zero"


@pytest.mark.parametrize("K", MODELS, ids=lambda K: K.name)
def test_split_levels_match_the_full_model(K):
    assert K.report.ok, K.report.violations
    g = K.genus
    full = {s: full_level_rows(K, s) for s in range(-g - 1, g + 2)}
    for s, (n, v_row, h_row) in full.items():
        got = cone._level_rows(K, s)
        assert got[0] == n, (K.name, s)
        assert _kind(got[1], got[2]) == _kind(v_row, h_row), (K.name, s)
    # the same cone assembled from the full-model table: an equal model with
    # its level table filled in advance
    oracle = KnotComplex(K.space, K.d_plus, K.d_minus, genus=K.genus, tau=K.tau, meta=K.meta)
    oracle.levels.update(full)
    for p, q in SLOPES:
        assert (build_cone_problem(K, p, q).dimension()
                == build_cone_problem(oracle, p, q).dimension()), (K.name, p, q)


def test_the_families_split():
    """Each model has one survivor; most families have acyclic components, staircases none."""
    for K in MODELS:
        comps = components(K)
        assert sum(1 for c in comps if sum((-1) ** g.z2 for g in c)) == 1, K.name
        assert len(comps) == 1 + sum(sum(shifts.values()) for _, shifts in K.split.acyclic)
        if len(comps) == 1:  # its own survivor: no sub-model, no second H(d-), H(d+)
            assert K.split.survivor is K and K.split.acyclic == ()
    assert sum(1 for K in MODELS if K.split.acyclic) >= 20


def test_acyclic_shapes_are_kept_once():
    K = _squares_model(6, 1, seed=2)
    # 22 squares of two signs: two shapes, each ranked once, at its one inner level
    assert len(K.split.acyclic) == 2
    assert sum(sum(shifts.values()) for _, shifts in K.split.acyclic) == 22
    cone.levels_dim(K, 1, 1)
    assert all(list(shape.levels) == [1] for shape, _ in K.split.acyclic)
