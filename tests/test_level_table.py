"""The level table read off the model's block ranks, against two oracles in ``level_oracle``.

``cone.pi_maps`` gives each level's shape (class count, v, h, line) from
the block ranks ``validate`` kept and the ranks of the bend, eliminating
only where a survivor lies in the bend.  ``level_oracle`` computes the bent homology with
representatives and the v and h rows over its classes, and
``whole_level_shape`` the same shape from the whole bent complex, as the
table was read before it became local.  On generated models and their
mirrors, ``K.levels`` must hold the shape read off those rows and the
whole-level shape, and ``bent_homology`` the oracles' class count; the
pathway table must not tell the two integer paths apart.
"""
import random

from hypothesis import given, settings, strategies as st

from knotsurgery import cone
from knotsurgery.catalog import thin_catalog
from knotsurgery.crosscheck import SLOPE_GRID, pathway_values
from knotsurgery.knotcx import KnotComplex, StaircaseSpec, assemble, mirror
import level_oracle
from knot_helpers import squares_model
from test_properties import _paired_squares, scramble

FAMILIES = ("thin", "squares", "scrambled", "whole-space")


@st.composite
def models(draw):
    """A thin model, a squares model, or a thin model in a per-component or whole-space basis."""
    family = draw(st.sampled_from(FAMILIES))
    tau = draw(st.integers(-3, 3))
    if family == "squares":
        K = squares_model(draw(st.integers(max(abs(tau), 1), 4)), tau, draw(st.integers(0, 99)))
    else:
        squares = _paired_squares(draw(st.lists(
            st.tuples(st.integers(0, 2), st.sampled_from((-1, 1))), max_size=3)))
        K = assemble(StaircaseSpec(tau), squares, name=f"{family}(tau={tau})")
        if family != "thin":
            K = scramble(K, random.Random(draw(st.integers(0, 2 ** 32))),
                         whole_space=family == "whole-space")
    return mirror(K) if draw(st.booleans()) else K


@settings(max_examples=80, deadline=None)
@given(models())
def test_level_table_matches_the_oracle_rows(K):
    g = K.genus
    levels = range(-g - 1, g + 2)
    cone._fill_levels(K, levels)
    assert K.levels == {s: level_oracle.shape(K, s) for s in levels}, K.name
    for s in levels:
        assert cone.bent_homology(K, s) == level_oracle.level_rows(K, s)[0], (K.name, s)


@settings(max_examples=120, deadline=None)
@given(models())
def test_local_levels_match_the_whole_level_oracle(K):
    for s in range(-K.genus - 2, K.genus + 3):
        whole = level_oracle.whole_level_shape(K, s)
        assert cone.pi_maps(K, s) == whole, (K.name, s)
        assert cone.bent_homology(K, s) == whole[0], (K.name, s)


def test_the_pathway_table_reads_the_same_from_either_level_path(monkeypatch):
    # every catalog model and its mirror, each built afresh for each path
    models = [M for K in thin_catalog() for M in (K, mirror(K))]
    local = [{(p, q): pathway_values(KnotComplex(*K), p, q) for p, q in SLOPE_GRID}
             for K in models]
    monkeypatch.setattr(cone, "pi_maps", level_oracle.whole_level_shape)
    whole = [{(p, q): pathway_values(KnotComplex(*K), p, q) for p, q in SLOPE_GRID}
             for K in models]
    assert local == whole


# --- the oracle's whole bent differential --------------------------------------

def _bent_differential_by_scan(K, s):
    """One scan of all entries per generator, kept as the reference for the index.

    Returns {source id: {target id: coefficient}}, d+ and d- each times the
    LCM of its own denominators, as ``level_oracle.bent_columns`` scales them.
    """
    from math import lcm
    plus, minus = ((d.entries, lcm(*(v.denominator for _, _, v in d.entries)))
                   for d in (K.d_plus, K.d_minus))
    cols = {}
    for g in K.space.generators:
        k = g.alex - 2 * s
        col = cols[g.gid] = {}
        for (entries, scale), on in ((plus, k >= 0), (minus, k <= 0)):
            if on:
                col.update((t, v * scale) for t, src, v in entries if src == g.gid)
    return cols


def test_bent_columns_match_entry_scan():
    rng = random.Random(23)
    for K0 in thin_catalog() + [scramble(K, rng) for K in thin_catalog()[:6]]:
        for K in (K0, mirror(K0)):
            ids = K.space.ids
            for s in range(-K.genus - 1, K.genus + 2):
                got = {ids[i]: {ids[j]: c for j, c in col.items()}
                       for i, col in level_oracle.bent_columns(K, s).items()}
                assert got == _bent_differential_by_scan(K, s), (K.name, s)
                assert all(type(c) is int for col in got.values() for c in col.values())


def test_bent_columns_share_the_model_columns():
    # off the bend a column is the model's own integer column, not a copy
    from knotsurgery.catalog import get_knot
    from knotsurgery.knotcx import build_staircase
    for K in (get_knot("figure-eight"), build_staircase(-3)):
        P, M = K.integer_maps
        for s in range(-K.genus - 1, K.genus + 2):
            bent = level_oracle.bent_columns(K, s)
            for i, g in enumerate(K.space.generators):
                if g.alex != 2 * s:
                    assert bent[i] is (P[i] if g.alex > 2 * s else M[i]), (K.name, s, i)
