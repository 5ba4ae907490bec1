"""The decomposition's split of a model into a staircase and squares, against the whole model.

``knotcx.decompose`` splits a valid model, up to isomorphism, into the
staircase of tau and its squares, and ``surgery_dim`` and
``zero_surgery_dims`` answer from that split alone.  The oracle here is the
level table of the model as given: ``pi_maps`` on K itself, with K's own
H(d-) and H(d+).  The split is rebuilt with ``assemble``.  Each level of
the table is what the cone depends on: its class count, which rows
vanish and whether v and h are proportional; the cone dimensions are
compared too.
"""
import math
import random

import pytest

from knotsurgery import cone
from knotsurgery.catalog import thin_catalog
from knotsurgery.cone import build_cone_problem, surgery_dim, zero_surgery_dims, zero_surgery_levels
from knotsurgery.crosscheck import PATHWAYS, SLOPE_GRID, pathway_values
from knotsurgery.knotcx import SquareSpec, StaircaseSpec, assemble, decompose, mirror
from knot_helpers import squares_model
from test_properties import random_thin_models, scramble

SLOPES = [(p, q) for q in range(1, 8) for p in range(-9, 10) if p and math.gcd(abs(p), q) == 1]


def _models():
    catalog = [M for K in thin_catalog() for M in (K, mirror(K))]
    randoms = random_thin_models(16, seed=5)
    squares = [squares_model(4, tau, seed) for seed, tau in enumerate((-2, 0, 1))]
    rng = random.Random(17)
    scrambled = [scramble(K, rng) for K in randoms[:8] + squares + catalog[::5]]
    return catalog + randoms + squares + scrambled


MODELS = _models()


def _kind(v, h, line):
    """E (both rows, proportional), G (both, independent), V (v only), H (h only) or 0 (none)."""
    if v and h:
        return "E" if line else "G"
    return "V" if v else "H" if h else "0"


def _rebuilt(K):
    tau, squares = decompose(K)
    return assemble(StaircaseSpec(tau), [SquareSpec(s, sign) for (s, sign), n in squares.items()
                                         for _ in range(n)])


@pytest.mark.parametrize("K", MODELS, ids=lambda K: K.name)
def test_split_levels_match_the_full_model(K):
    """assemble(decompose(K)) has K's level table, zero-surgery table and cone dimensions."""
    assert K.report.ok, K.report.violations
    split = _rebuilt(K)
    g = K.genus
    assert split.genus == g
    levels = range(-g - 1, g + 2)
    table, split_table = cone._fill_levels(K, levels), cone._fill_levels(split, levels)
    for s in levels:
        assert split_table[s] == table[s], (K.name, s)
    for span in (None, g + 1):
        assert zero_surgery_dims(K, span=span) == zero_surgery_levels(K, span=span), (K.name, span)
    for p, q in SLOPES:
        dim = build_cone_problem(K, p, q).dimension()
        assert surgery_dim(K, p, q).dimension == dim, (K.name, p, q)
        assert build_cone_problem(split, p, q).dimension() == dim, (K.name, p, q)


@pytest.mark.parametrize("K", MODELS, ids=lambda K: K.name)
def test_level_word_is_fixed_by_tau(K):
    """The row kinds at levels 1 - g..g - 1 read H^(g - t) X V^(g - t), t = max(|tau|, 1).

    X is E when tau = 0, 0^(2 tau - 1) when tau > 0 and G^(2 |tau| - 1)
    when tau < 0 (Ni-Wu's z and m count the 0 and G levels).
    """
    g, tau = max(K.genus, 1), K.tau
    t = max(abs(tau), 1)
    middle = "E" if tau == 0 else ("0" if tau > 0 else "G") * (2 * abs(tau) - 1)
    table = cone._fill_levels(K, range(1 - g, g))
    word = "".join(_kind(*table[s][1:]) for s in range(1 - g, g))
    assert word == "H" * (g - t) + middle + "V" * (g - t), K.name


def test_the_families_split():
    """Each model splits into the staircase of its tau and its squares; most families have squares."""
    for K in MODELS:
        tau, squares = decompose(K)
        assert tau == K.tau and K.dim == 2 * abs(tau) + 1 + 4 * sum(squares.values()), K.name
    assert sum(1 for K in MODELS if decompose(K).squares) >= 20


@pytest.mark.parametrize("K", [assemble(StaircaseSpec(1), [SquareSpec(0, 1), SquareSpec(0, -1)]),
                               assemble(StaircaseSpec(0), [SquareSpec(1, 1), SquareSpec(-1, -1)])],
                         ids=["tau1-squares-at-0", "tau0-squares-at-pm1"])
def test_pathway_table_agrees_on_models_that_are_not_thin(K):
    """Squares the Alexander polynomial cannot see: no pathway of the table reads the polynomial."""
    for p, q in SLOPE_GRID:
        values = pathway_values(K, p, q)
        assert list(values) == [name for name in PATHWAYS if name in values]
        assert len(set(values.values())) == 1, (p, q, values)

