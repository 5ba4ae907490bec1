"""The level table read off integer ranks, against the rational rows of ``level_oracle``.

``cone.pi_maps`` gives each level's shape (class count, v, h, line) from
the ranks of the bent complex and of the mapping cones of its projections.
``level_oracle`` computes the bent homology with representatives and the
v and h rows over its classes.  On generated models and their mirrors, at
every level from -genus - 1 to genus + 1, ``K.levels`` must hold the shape
read off those rows, and ``bent_homology`` the oracle's class count.
"""
import random

from hypothesis import given, settings, strategies as st

from knotsurgery import cone
from knotsurgery.knotcx import StaircaseSpec, assemble, mirror
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
    for s in levels:
        cone._level(K, s)
    assert K.levels == {s: level_oracle.shape(K, s) for s in levels}, K.name
    for s in levels:
        assert cone.bent_homology(K, s) == level_oracle.level_rows(K, s)[0], (K.name, s)
