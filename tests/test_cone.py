"""Surgery cones: bent homology, projections, dimensions, zero-surgery, scan.

All frozen values below were derived by hand before implementation:
kernel/image chases on the five-generator figure-eight model and the
five-step staircases are written out in the comments, and cross-checked
against the closed thin-knot formula where both apply.
"""
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from knotsurgery import cone
from knotsurgery.catalog import get_knot, thin_catalog
from knotsurgery.cone import (
    ConeProblem,
    PreconditionError,
    almost_lspace_scan,
    bent_homology,
    build_cone_problem,
    genus_one_positive_ladder,
    large_surgery_dim,
    large_surgery_start,
    pi_maps,
    surgery_dim,
    zero_surgery_dims,
    zero_surgery_levels,
)
from knotsurgery.knotcx import (
    KnotComplex,
    SquareSpec,
    StaircaseSpec,
    assemble,
    build_staircase,
    decompose,
    mirror,
    validate,
)
from knotsurgery.linalg import LinearAlgebraError
import cone_elimination
from cone_elimination import (
    assembled_dimension,
    block_kinds,
    check_path_structure,
    elimination_dimension,
    generic_rows,
    h_sources,
    window_levels,
)
from knot_helpers import squares_model, wide_model
import level_oracle
from test_level_table import models


def fig8():
    return get_knot("figure-eight")


def mirror_t25():
    return mirror(get_knot("t2_5"))


# --- bent homology ---------------------------------------------------------

def test_bent_homology_figure_eight_level0():
    # cycles {b, c, d, e} modulo the single boundary c + b: dimension 3
    assert bent_homology(fig8(), 0) == 3


def test_bent_homology_figure_eight_level1():
    # only e survives: the square part pairs off across the bend
    assert bent_homology(fig8(), 1) == 1


def test_bent_homology_trefoil_all_levels():
    K = get_knot("trefoil-right")
    for s in range(-3, 4):
        assert bent_homology(K, s) == 1


def test_bent_homology_far_levels_are_one_sided():
    # at |s| >= genus the bend disappears and one class remains
    for name in ("figure-eight", "5_2-bar", "t2_7"):
        K = get_knot(name)
        assert bent_homology(K, K.genus) == bent_homology(K, 5 * K.genus) == 1


# --- induced projections -----------------------------------------------------

def test_pi_maps_iso_at_genus():
    # one class, kept by the low projection and killed by the high one
    assert pi_maps(fig8(), fig8().genus) == (1, True, False, False)


def test_pi_maps_mirror_t25_level1():
    # H(A(1)) is 3-dimensional; the low projection keeps the a5 class and the
    # high projection keeps the a1 class, so both have rank 1, and the pair
    # has rank 2: the rows are independent.
    assert pi_maps(mirror_t25(), 1) == (3, True, True, False)


def test_pi_maps_figure_eight_level1():
    # the sole class [e] sits below the bend: kept by v, killed by h
    assert pi_maps(fig8(), 1) == (1, True, False, False)


def test_pi_maps_figure_eight_level0_is_a_line():
    # H(A(0)) is 3-dimensional and both projections keep only [e]: rank 1
    # each, and rank 1 for the pair, so the rows are proportional
    assert pi_maps(fig8(), 0) == (3, True, True, True)


# --- integral and rational surgeries ----------------------------------------

def test_anchor_trefoil_plus_one():
    assert surgery_dim(get_knot("trefoil-right"), 1, 1).dimension == 1


def test_anchor_figure_eight_plus_one():
    assert surgery_dim(fig8(), 1, 1).dimension == 3


def test_figure_eight_half_slope():
    # independent closed-form oracle: (5 - 1) * 2 / 2 + 1 = 5
    res = surgery_dim(fig8(), 1, 2)
    assert res.dimension == 5 and res.pathway == "decomposition"


def test_5_2_bar_plus_one():
    assert surgery_dim(get_knot("5_2-bar"), 1, 1).dimension == 3


def test_5_2_bar_minus_one():
    # closed form with tau = 1: (7 + 2 - 3) / 2 + |-1 - 1| = 5
    assert surgery_dim(get_knot("5_2-bar"), -1, 1).dimension == 5


def test_mirror_t25_slopes():
    # closed form with tau = -2: 3 q + |-p - 3 q|
    K = mirror_t25()
    assert surgery_dim(K, 1, 1).dimension == 7
    assert surgery_dim(K, -1, 1).dimension == 5


def test_unknot_lens_spaces():
    K = get_knot("unknot")
    assert surgery_dim(K, 5, 2).dimension == 5
    assert surgery_dim(K, 2, 3).dimension == 2
    assert surgery_dim(K, -4, 1).dimension == 4
    assert surgery_dim(K, 1, 1).dimension == 1


def test_figure_eight_minus_two_thirds():
    # closed form with tau = 0: (5 - 1) * 3 / 2 + |-2| = 8
    assert surgery_dim(fig8(), -2, 3).dimension == 8


def test_window_stability():
    for name, p, q in [("figure-eight", 1, 2), ("5_2-bar", 3, 1), ("t2_7", -2, 3)]:
        K = get_knot(name)
        base = surgery_dim(K, p, q).dimension
        wide = build_cone_problem(K, p, q, window_margin=4).dimension()
        assert wide == base, (name, p, q)


def test_large_surgery_equals_cone_and_steps_by_one():
    for name in ("figure-eight", "trefoil-left", "t2_5", "5_2-bar"):
        K = get_knot(name)
        prev = None
        for n in range(large_surgery_start(K), 2 * K.genus + 4):
            large = large_surgery_dim(K, n)
            cone = build_cone_problem(K, n, 1).dimension()
            assert large == cone, (name, n)
            if prev is not None:
                assert large - prev == 1
            prev = large


def test_large_surgery_reuses_levels(monkeypatch):
    calls = []

    def counted(K, s):
        calls.append(s)
        return pi_maps(K, s)

    monkeypatch.setattr(cone, "pi_maps", counted)
    K = build_staircase(12)
    almost_lspace_scan(K)
    assert calls == []  # the scan reads the decomposition, no level
    for n in range(large_surgery_start(K), 2 * K.genus + 4):
        large_surgery_dim(K, n)
    # the first sum fills the table -13..13, each level once, and the later
    # sums read it: every level below -genus has the rows of level -genus - 1
    assert sorted(calls) == list(range(-13, 14))


def test_levels_past_the_genus_repeat():
    from test_properties import random_thin_models
    for K0 in thin_catalog() + random_thin_models(12):
        for K in (K0, mirror(K0)):
            g = K.genus
            for edge, far in ((-g - 1, -g - 3), (g + 1, g + 3)):
                assert pi_maps(K, edge) == pi_maps(K, far), (K.name, far)
                rows = [level_oracle.level_rows(K, s) for s in (edge, far)]
                assert rows[0] == rows[1], (K.name, far)


def test_every_oracle_fills_the_whole_table():
    # each oracle fills the levels -genus - 1..genus + 1, whatever it sums
    oracles = [lambda K: large_surgery_dim(K, 1), lambda K: build_cone_problem(K, 1, 1),
               lambda K: build_cone_problem(K, -7, 3, window_margin=4),
               zero_surgery_levels, lambda K: bent_homology(K, 9)]
    for oracle in oracles:
        K = build_staircase(1)
        oracle(K)
        assert sorted(K.levels) == [-2, -1, 0, 1, 2]


def test_large_surgery_far_past_the_genus():
    from knotsurgery.formulas import thin_surgery_formula
    for name in ("figure-eight", "t2_7", "5_2-bar"):
        K = get_knot(name)
        n = 10 ** 7
        assert large_surgery_dim(K, n) == thin_surgery_formula(K.dim, K.tau, n, 1), name
        assert set(K.levels) <= set(range(-K.genus - 1, K.genus + 2))


def test_a_new_level_passes_only_its_source_block(monkeypatch):
    # a level's shape ranks the bend alone, and an induced rank is taken only
    # on the bend block that holds a survivor, never on all K.dim columns; a
    # filled table calls nothing
    ranked, induced = [], []
    real_ranks, real_induced = cone.block_ranks, cone.induced_map_on_homology

    def ranks_spy(cols, blocks):
        ranked.append(cols)
        return real_ranks(cols, blocks)

    def induced_spy(d_src, src_blocks, src_ranks, targets):
        induced.append((d_src, src_blocks, len(targets)))
        return real_induced(d_src, src_blocks, src_ranks, targets)

    monkeypatch.setattr(cone, "block_ranks", ranks_spy)
    monkeypatch.setattr(cone, "induced_map_on_homology", induced_spy)
    passed = []
    for K in (build_staircase(200), squares_model(4, -1, 3), squares_model(4, 0, 5)):
        survivors = {block for h in K.report.homology_blocks for block in h}
        for s in range(-K.genus - 1, K.genus + 2):
            ranked.clear()
            induced.clear()
            K.levels[s] = cone.pi_maps(K, s)
            bend = {i for z in (0, 1) for i in K.blocks.get((2 * s, z), ())}
            assert [set(cols) for cols in ranked] == [bend], (K.name, s)
            for d_src, src_blocks, targets in induced:
                [((k, z), positions)] = src_blocks.items()
                assert k == 0 and (2 * s, z) in survivors, (K.name, s)
                assert set(d_src) == set(positions) == set(K.blocks[2 * s, z]), (K.name, s)
                assert len(d_src) < K.dim
                passed.append(targets)
        ranked.clear()
        induced.clear()
        cone.level_table(K)
        assert ranked == induced == [], K.name
    assert sorted(passed) == [1] * 6 + [2]  # v and h at s = +-tau of each, the pair once


def test_pi_maps_checks_each_projection_is_a_chain_map():
    # a d+ column sent two gradings down: q0d (at 0) of the figure-eight now
    # maps to q0b (at -1).  At level 0, q0d is in the bend block of both
    # survivors: its bent column is that column, which the low projection
    # keeps, while d- of q0d is zero
    K = KnotComplex(*fig8())  # a fresh copy: the catalog's own model stays intact
    assert K.report.ok  # validated before its integer maps are corrupted
    P, M = K.integer_maps
    K.__dict__["integer_maps"] = {**P, 4: {2: 1}}, M
    with pytest.raises(LinearAlgebraError, match=r"not a chain map: \(f o d - d o f\)\(4\)"):
        pi_maps(K, 0)
    with pytest.raises(LinearAlgebraError, match="not a chain map"):
        cone.level_table(K)
    assert 0 not in K.levels


def test_the_whole_level_oracle_checks_every_generator():
    # a d- column sent two gradings up: a1 (at -2) now maps to a3 (at 0).  At
    # level -1 no survivor is in the bend, so the local table reads no column
    # of a1 and keeps its shape, while the whole-level oracle checks a1 too
    K = build_staircase(2)
    assert K.report.ok
    P, M = K.integer_maps
    K.__dict__["integer_maps"] = P, {**M, 0: {2: 1}}
    assert pi_maps(K, -1) == pi_maps(build_staircase(2), -1)
    with pytest.raises(LinearAlgebraError, match=r"not a chain map: \(f o d - d o f\)\(0\)"):
        level_oracle.whole_level_shape(K, -1)


def test_large_surgery_dim_rejects_small_slope():
    with pytest.raises(PreconditionError, match="outside the large-surgery regime"):
        large_surgery_dim(get_knot("t2_5"), 2)


def test_surgery_dim_has_no_pathway_parameter():
    with pytest.raises(TypeError):
        surgery_dim(fig8(), 1, 1, pathway="cone")


def test_scalar_independence_of_cone():
    import random
    from fractions import Fraction
    rng = random.Random(11)
    for name, p, q in [("figure-eight", 1, 1), ("5_2-bar", -1, 1), ("t2_5", 1, 2)]:
        K = get_knot(name)
        prob = build_cone_problem(K, p, q)
        base = prob.dimension()
        for src in h_sources(prob):
            c = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
            assert elimination_dimension(K, prob, {src: c}) == base


def _square_models():
    """Two seeded squares per level on a staircase of tau 0 or -2, genus 3."""
    import random
    rng = random.Random(7)
    return [assemble(StaircaseSpec(tau), [SquareSpec(s, rng.choice((-1, 1)))
                                          for s in range(-2, 3) for _ in range(2)],
                     name=f"squares(tau={tau})")
            for tau in (0, -2)]


@pytest.mark.parametrize("family", ["catalog", "random", "squares"])
def test_sweep_equals_elimination_on_every_block_kind(family):
    import random
    from fractions import Fraction
    from test_properties import random_thin_models
    models = {"catalog": lambda: [M for K in thin_catalog() for M in (K, mirror(K))],
              "random": lambda: random_thin_models(12),
              "squares": _square_models}[family]()
    rng = random.Random(3)
    kinds = set()
    for K in models:
        for p, q in ((1, 1), (-1, 1), (3, 1), (-3, 2), (1, 3), (5, 3)):
            prob = build_cone_problem(K, p, q)
            kinds |= block_kinds(K, prob)
            scale = {src: Fraction(rng.randrange(1, 9), rng.randrange(1, 5))
                     for src in h_sources(prob)}
            assert prob.dimension() == elimination_dimension(K, prob, scale), (K.name, p, q)
    assert kinds == {"zero", "v-only", "h-only", "edge", "rank 2"}


def test_sweep_follows_long_paths():
    # figure-eight at slope +-1/41: one level, whose v and h rows are equal, so
    # the slots form one long path; at +1/41 its two end blocks ground it, at
    # -1/41 every block is an edge and the path stays free
    from knotsurgery.formulas import thin_surgery_formula
    K = fig8()
    for p, kinds in ((1, {"edge", "v-only", "h-only"}), (-1, {"edge"})):
        prob = build_cone_problem(K, p, 41)
        assert block_kinds(K, prob) == kinds
        want = thin_surgery_formula(K.dim, K.tau, p, 41)
        assert prob.dimension() == elimination_dimension(K, prob) == want


@pytest.mark.parametrize("name", ["figure-eight", "unknot", "trefoil-right", "t2_5-mirror"])
def test_the_ranked_cone_equals_the_decomposition_at_wide_denominators(name):
    # tens of thousands of sources in runs of a few levels; q stays near
    # 5 * 10^4 so that the path check of conftest.py, which reads every
    # source, stays affordable
    K = get_knot(name)
    for p, q in ((1, 49999), (-1, 49999), (49999, 1), (-49999, 1), (24999, 2), (-24999, 2),
                 (7, 7143), (-7, 7143)):
        assert build_cone_problem(K, p, q).dimension() == surgery_dim(K, p, q).dimension, \
            (name, p, q)


# Every level shape: n classes, and v, h and line as a level of n classes can have them.
_EVERY_SHAPE = [(n, v, h, line) for n in range(4) for v in (False, True) for h in (False, True)
                for line in (False, True)
                if (n or not (v or h)) and line <= (v and h) and (line or not (v and h) or n > 1)]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 3).flatmap(lambda g: st.lists(st.sampled_from(_EVERY_SHAPE),
                                                    min_size=2 * g + 3, max_size=2 * g + 3)),
       st.integers(1, 9).flatmap(lambda q: st.tuples(
           st.integers(-30, 30).filter(lambda p: p and math.gcd(p, q) == 1), st.just(q))),
       st.integers(0, 3), st.integers(0, 2 ** 32))
def test_sweep_equals_elimination_on_generated_level_words(word, slope, margin, seed):
    # a level word over the table's entries -g-1..g+1, the window widened by
    # margin so that far levels repeat the edge entries, against the exact
    # elimination with generic rational rows and h scalars
    import random
    from fractions import Fraction
    (p, q), g = slope, (len(word) - 3) // 2
    K = build_staircase(g)
    K.levels.update(zip(range(-g - 1, g + 2), word))
    prob = build_cone_problem(K, p, q, window_margin=margin)
    rng = random.Random(seed)
    rows = {s: generic_rows(shape, rng) for s, shape in zip(range(-g - 1, g + 2), word)}
    rows = {s: rows[min(max(s, -g - 1), g + 1)] for s in window_levels(prob)}
    scale = {src: Fraction(rng.choice((-1, 1)) * rng.randrange(1, 9), rng.randrange(1, 5))
             for src in h_sources(prob)}
    dim = prob.dimension()
    assert dim == assembled_dimension(prob, rows, scale), (word, p, q, margin)
    assert prob._replace(levels=dict(reversed(prob.levels.items()))).dimension() == dim


def test_the_level_table_answers_on_a_wide_model():
    # 7803 generators at genus 20: every oracle reads 39 or 40 levels of the
    # table and equals its closed form
    K = wide_model(20, 50)
    assert K.dim == 7803
    for p, q in ((1, 1), (-1, 1), (3, 2), (39, 1)):
        assert build_cone_problem(K, p, q).dimension() == surgery_dim(K, p, q).dimension
    assert large_surgery_dim(K, 39) == surgery_dim(K, 39, 1).dimension
    assert zero_surgery_levels(K) == zero_surgery_dims(K)


def _work_bound_models():
    import random
    from test_properties import random_thin_models, scramble
    rng = random.Random(17)
    wide = [squares_model(10, tau, seed) for tau, seed in ((-3, 1), (3, 2), (0, 3))] + [
        wide_model(2, 6), wide_model(6, 3)]
    scrambled = [scramble(K, rng, whole_space=True)
                 for K in thin_catalog()[:8] + random_thin_models(8, seed=3) + wide]
    return thin_catalog() + random_thin_models(20) + wide + scrambled


def test_the_level_table_costs_one_rank_of_each_block_and_its_survivors(monkeypatch):
    """Filling every level hands ``Echelon.reduce`` at most K.dim + 7 w vectors.

    w is the most generators at one grading.  A level ranks its bend, the
    model blocks at its own grading, so each generator is a bend column at
    one level only: K.dim in all.  Only a level whose bend holds the
    survivor of H(d-) or H(d+) eliminates again, on the survivor's bend
    block and the boundary block next to it, 2 w for each of the two
    survivors; when both share one bend block, the pair is eliminated once
    more, on that block and both boundary blocks, 3 w.  This bound is what
    keeps the table within the spec limits that bound ``validate``, so no
    limit of its own is needed.
    """
    from collections import Counter
    from knotsurgery import linalg
    reduce, handed = linalg.Echelon.reduce, []

    def counting(self, vectors):
        vectors = list(vectors)
        handed.append(len(vectors))
        return reduce(self, vectors)

    models = _work_bound_models()
    for K in models:
        decompose(K)  # validation ranks on its own account
    monkeypatch.setattr(linalg.Echelon, "reduce", counting)
    for K in models:
        handed.clear()
        cone.level_table(K)
        widest = max(Counter(g.alex for g in K.space.generators).values())
        assert sum(handed) <= K.dim + 7 * widest, K.name
    assert max(K.dim for K in models) > 150


def test_cone_rejects_slope_zero():
    with pytest.raises(PreconditionError, match="zero_surgery"):
        build_cone_problem(fig8(), 0, 1)


@pytest.mark.parametrize("p, q, message", [
    (1, 0, "slope denominator must be a positive integer"),
    (1, -1, "slope denominator must be a positive integer"),
    (2, 4, "slope 2/4 is not reduced"),
    (3, 3, "slope 3/3 is not reduced"),
])
def test_cone_refuses_the_slopes_the_formula_refuses(p, q, message):
    from knotsurgery.formulas import thin_surgery_formula
    for call in (lambda: build_cone_problem(fig8(), p, q),
                 lambda: thin_surgery_formula(3, 0, p, q)):
        with pytest.raises(PreconditionError, match=message):
            call()


@pytest.mark.parametrize("name, p, q, sources, targets", [
    ("t2_5", 1, 1, 3, 2), ("t2_5", -1, 1, 3, 4), ("figure-eight", 9, 1, 9, 0),
    ("t2_5", 3, 2, 6, 3), ("t2_5", -3, 2, 6, 9), ("figure-eight", -3, 2, 2, 5),
    ("t2_5", 5, 3, 9, 4), ("t2_5", -5, 3, 9, 14), ("figure-eight", 1, 3, 3, 2),
])
def test_cone_source_and_target_counts(name, p, q, sources, targets):
    # the benchmark's cone.sources and cone.targets counters read these lengths
    prob = build_cone_problem(get_knot(name), p, q)
    assert (len(prob.sources), len(prob.targets)) == (sources, targets)
    assert sources == (2 * prob.window - 1) * q  # q for each of the 2W - 1 window levels


def _one_source_lower(real):
    """A layout in which each level's sources start one source lower: levels overlap by one."""
    return lambda prob, lo, hi: range(real(prob, lo, hi).start - 2, real(prob, lo, hi).stop, 2)


@pytest.mark.parametrize("layout, sources, message", [
    # the first source of each level is the last of the level below: that slot
    # takes the v rows of both and the h row of the source 2p under it
    (_one_source_lower, None, "not a union of paths"),
    (None, lambda self: range(self.window * self.q, 2 * self.window * self.q, 2),
     "levels do not tile the sources"),
])
def test_the_path_check_fails_a_broken_cone(monkeypatch, layout, sources, message):
    prob = ConeProblem(1, 2, 3, 3, {s: (2, True, True, False) for s in range(-3, 4)})
    check_path_structure(prob)
    if layout:
        monkeypatch.setattr(cone_elimination, "level_sources", layout(cone_elimination.level_sources))
    if sources:
        monkeypatch.setattr(ConeProblem, "sources", property(sources))
    with pytest.raises(AssertionError, match=message):
        check_path_structure(prob)


def test_the_path_check_costs_the_same_at_any_slope():
    # it works per run of levels: q and p past sys.maxsize cost no more than 1
    K = build_staircase(40)
    for p, q in ((1, 1), (1, 10 ** 30 + 1), (10 ** 30 + 1, 1), (-10 ** 30 - 1, 10 ** 30)):
        prob = build_cone_problem(K, p, q)
        start = time.perf_counter()
        check_path_structure(prob)
        assert time.perf_counter() - start < 0.05, (p, q)


def test_dimension_has_no_scalar_parameter():
    with pytest.raises(TypeError):
        build_cone_problem(fig8(), 1, 1).dimension(h_scale={})


def test_surgery_rejects_zero_slope():
    with pytest.raises(PreconditionError, match="zero_surgery"):
        surgery_dim(fig8(), 0, 1)


def test_surgery_rejects_unreduced_slope():
    with pytest.raises(PreconditionError, match="not reduced"):
        surgery_dim(fig8(), 2, 4)


def test_surgery_rejects_invalid_model():
    from knotsurgery.knotcx import ModelError
    from knotsurgery.linalg import space
    from linalg_helpers import zero_map
    sp = space([("x", 0, 0), ("y", 0, 0)])
    bad = KnotComplex(sp, zero_map(sp), zero_map(sp), genus=0, tau=0)
    entry_points = [lambda: surgery_dim(bad, 1, 1), lambda: large_surgery_dim(bad, 1),
                    lambda: zero_surgery_dims(bad), lambda: zero_surgery_levels(bad),
                    lambda: build_cone_problem(bad, 1, 1).dimension()]
    for call in entry_points:
        for _ in range(2):  # the report is kept on the model; a second call still raises
            with pytest.raises(ModelError, match="invalid knot model"):
                call()
    assert bad.levels == {}


# --- per-model state -----------------------------------------------------------

def test_level_table_lives_on_the_model():
    K = build_staircase(3)
    assert K.levels == {}
    surgery_dim(K, 1, 1)
    assert K.levels == {}  # the answer reads the decomposition, no level
    build_cone_problem(K, 1, 1).dimension()
    assert sorted(K.levels) == list(range(-K.genus - 1, K.genus + 2))
    other = build_staircase(3)
    assert other == K and other.levels == {}


def test_a_full_table_is_returned_without_pi_maps(monkeypatch):
    K = squares_model(3, -1, 2)
    table = cone.level_table(K)
    assert len(table) == 2 * K.genus + 3

    def refuse(K, s):
        raise AssertionError(f"pi_maps called on a full table, for level {s}")

    monkeypatch.setattr(cone, "pi_maps", refuse)
    assert cone.level_table(K) is table
    assert build_cone_problem(K, -5, 3, window_margin=2).levels is table
    build_cone_problem(K, 1, 1).dimension()
    large_surgery_dim(K, 9)
    zero_surgery_levels(K)
    bent_homology(K, -7)
    assert K.levels is table and len(table) == 2 * K.genus + 3


def test_a_partial_table_gets_exactly_its_missing_levels(monkeypatch):
    full = cone.level_table(squares_model(3, -1, 2))
    K = squares_model(3, -1, 2)
    kept = {s: full[s] for s in (-K.genus - 1, -1, 0, 2)}
    K.levels.update(kept)
    computed = []
    real = cone.pi_maps

    def counted(K, s):
        computed.append(s)
        return real(K, s)

    monkeypatch.setattr(cone, "pi_maps", counted)
    assert cone.level_table(K) == full
    assert sorted(computed) == [s for s in range(-K.genus - 1, K.genus + 2) if s not in kept]
    assert all(K.levels[s] is shape for s, shape in kept.items())
    computed.clear()
    cone.level_table(K)
    assert computed == []


@settings(max_examples=40, deadline=None)
@given(models())
def test_block_order_changes_no_answer(K):
    # each block of K.blocks read in reverse: the same report, decomposition
    # and level shapes as the model in its own order
    R = KnotComplex(*K)
    R.__dict__["blocks"] = {block: positions[::-1] for block, positions in K.blocks.items()}
    assert validate(R) == validate(K)
    assert decompose(R) == decompose(K)
    for s in range(-K.genus - 1, K.genus + 2):
        assert pi_maps(R, s) == pi_maps(K, s), (K.name, s)


def test_mirror_is_kept_on_the_model(monkeypatch):
    from knotsurgery import knotcx
    from knotsurgery.knotcx import thin_from_alexander
    validated = []
    real = knotcx.validate

    def counted(K):
        validated.append(K.tau)
        return real(K)

    monkeypatch.setattr(knotcx, "validate", counted)
    K = thin_from_alexander([(1, 2), (-1, 1), (1, 0), (-1, -1), (1, -2)], 2, name="t2_5")
    first = zero_surgery_dims(K)
    assert zero_surgery_dims(K) == first
    assert validated == [2]
    assert mirror(K) is mirror(K) and mirror(mirror(K)) is K


# --- zero surgery ------------------------------------------------------------

def test_zero_surgery_figure_eight_undetermined():
    # genus 1 and tau 0: no off-zero slots, the zero slot is undetermined
    assert zero_surgery_dims(fig8()) == {0: None}


def test_zero_surgery_mirror_t25_table():
    # Hand oracle, recorded here as the representative chase that froze the
    # expected values.  Model a1@2, a2@1, a3@0, a4@-1, a5@-2 with
    # d-: a1->a2, a3->a4 and d+: a3->a2, a5->a4.
    #   s=1: bent homology has classes [a1],[a2],[a5]; the low projection
    #        keeps only [a5] (a2 is a lowering boundary), the high projection
    #        keeps only [a1]; joint rank 1 on a 1-dim slot: 3 - 1 + 1 - 1 = 2.
    #   s=0: classes [a1],[a4],[a5] (a2 ~ -a4): low keeps [a5], high keeps
    #        [a1]; rank 1: dimension 2.
    #   s=-1: symmetric to s=1: dimension 2.
    assert zero_surgery_dims(mirror_t25()) == {-1: 2, 0: 2, 1: 2}


def test_zero_surgery_vanishes_beyond_genus():
    for name in ("figure-eight", "5_2-bar", "t2_5"):
        K = get_knot(name)
        table = zero_surgery_dims(K, span=K.genus + 2)
        for s, d in table.items():
            if abs(s) >= K.genus:
                assert d == 0, (name, s)


def test_zero_surgery_mirrors_positive_tau():
    # a tau > 0 model and its mirror give the same slot dimensions
    t25 = get_knot("t2_5")
    direct = zero_surgery_dims(mirror_t25())
    routed = zero_surgery_dims(t25)
    assert sorted(routed.values()) == sorted(direct.values())


def _asymmetric_square_models():
    """Two seeded squares per level on staircases of both signs: chi is not symmetric."""
    import random
    rng = random.Random(11)
    return [assemble(StaircaseSpec(1), [SquareSpec(1, 1), SquareSpec(-1, -1)], name="asym")] + [
        assemble(StaircaseSpec(tau), [SquareSpec(s, rng.choice((-1, 1)))
                                      for s in range(-2, 3) for _ in range(2)],
                 name=f"asym-squares(tau={tau})")
        for tau in (2, -2, 1)]


@pytest.mark.parametrize("family", ["catalog", "random", "asymmetric", "scrambled"])
def test_zero_surgery_matches_the_mirror_route(family):
    # Oracle: the mirror's table re-indexed by s -> -s, the route tau > 0
    # models once took.  Every model is also checked as its own mirror, so
    # both signs of tau are read from the model itself.
    import random
    from test_properties import random_thin_models, scramble
    rng = random.Random(5)
    models = {"catalog": thin_catalog,
              "random": lambda: random_thin_models(40),
              "asymmetric": _asymmetric_square_models,
              "scrambled": lambda: [scramble(K, rng) for K in thin_catalog() + random_thin_models(12)
                                    + _asymmetric_square_models()]}[family]()
    taus = set()
    for K0 in models:
        for K in (K0, mirror(K0)):
            taus.add((K.tau > 0) - (K.tau < 0))
            for span in (None, K.genus + 1):
                table = zero_surgery_dims(K, span=span)
                oracle = {-s: d for s, d in zero_surgery_dims(mirror(K), span=span).items()}
                assert table == oracle, (K.name, span)
                assert table == zero_surgery_levels(K, span=span), (K.name, span)
    assert taus == ({-1, 1} if family == "asymmetric" else {-1, 0, 1})


def test_zero_surgery_levels_refuse_every_proportional_level():
    # Rows h = lambda v make v + c h vanish at c = -1/lambda, so the slot
    # over such a level depends on the identification scalar c whatever
    # lambda is.  A proportional level injected at s != 0 raises; at s = 0
    # of a tau = 0 model the slot is None and the level is never read.
    line = (2, True, True, True)
    for s in (1, -1):
        K = build_staircase(2)
        K.levels[s] = line
        with pytest.raises(PreconditionError, match=f"grading {s} is scalar-dependent"):
            zero_surgery_levels(K)
    K = squares_model(2, 0, 1)
    want = zero_surgery_dims(K)
    K.levels[0] = line
    assert zero_surgery_levels(K) == want and want[0] is None
    assert cone.level_table(fig8())[0] == (3, True, True, True)  # the figure-eight's own level 0
    assert zero_surgery_levels(fig8()) == {0: None}


def test_zero_surgery_builds_no_mirror(monkeypatch):
    from knotsurgery import knotcx
    from knotsurgery.knotcx import thin_from_alexander
    calls = []
    for name in ("validate", "_build_mirror"):
        def counted(K, real=getattr(knotcx, name), name=name):
            calls.append((name, K.tau))
            return real(K)
        monkeypatch.setattr(knotcx, name, counted)
    for K in (thin_from_alexander([(1, 2), (-1, 1), (1, 0), (-1, -1), (1, -2)], 2),
              _asymmetric_square_models()[1]):
        calls.clear()
        zero_surgery_dims(K)
        zero_surgery_dims(K, span=K.genus + 1)
        assert calls == [("validate", 2)] and "mirrored" not in K.__dict__, K.name


def test_zero_surgery_trefoil():
    assert zero_surgery_dims(get_knot("trefoil-left")) == {0: 2}
    assert zero_surgery_dims(get_knot("trefoil-right")) == {0: 2}


# --- ladder and scan ---------------------------------------------------------

def test_genus_one_ladder():
    assert genus_one_positive_ladder(fig8(), 3) == 5
    assert surgery_dim(fig8(), 3, 1).dimension == 5
    assert genus_one_positive_ladder(get_knot("5_2-bar"), 2) == 4
    assert genus_one_positive_ladder(get_knot("trefoil-right"), 5) == 5


def test_ladder_rejects_higher_genus():
    with pytest.raises(PreconditionError, match="genus 1"):
        genus_one_positive_ladder(get_knot("t2_5"), 2)


def test_scan_verdicts():
    assert almost_lspace_scan(get_knot("trefoil-left")).verdict == "almost"
    assert almost_lspace_scan(get_knot("trefoil-left")).witness == 1
    assert almost_lspace_scan(fig8()).verdict == "almost"
    assert almost_lspace_scan(get_knot("5_2-bar")).verdict == "almost"
    assert almost_lspace_scan(get_knot("trefoil-right")).verdict == "lspace"
    assert almost_lspace_scan(get_knot("t2_5")).verdict == "lspace"
    assert almost_lspace_scan(get_knot("t2_7")).verdict == "lspace"


def test_scan_neither():
    # 7_4-like twist knot: dims grow two past the minimum plus more
    assert almost_lspace_scan(get_knot("twist(2)")).verdict == "neither"


def test_half_level_squares_match_the_cone():
    # validate rejects a generator at a half-integer grading, so both the
    # answer and the ranked cone refuse the model
    from knotsurgery.knotcx import ModelError
    from knot_helpers import half_level_squares_model
    K = half_level_squares_model()
    for call in (lambda: surgery_dim(K, 1, 1), lambda: build_cone_problem(K, 1, 1).dimension(),
                 lambda: zero_surgery_dims(K), lambda: zero_surgery_levels(K)):
        with pytest.raises(ModelError, match="'xa' sits at a half-integer grading"):
            call()


def test_staircase_family_slope_table():
    # tau = l > 0 staircases at slope +1: (2l + 1 + 2l - 3)/2 + |1 - (2l - 1)| = 4l - 3
    for l in (1, 2, 3):
        K = build_staircase(l)
        assert surgery_dim(K, 1, 1).dimension == 4 * l - 3


# --- the answer against the ranked cone ---------------------------------------

def _generated_models(family):
    """Each model of a family together with its mirror."""
    import random
    from test_properties import random_thin_models, scramble
    rng = random.Random(13)
    base = {"catalog": thin_catalog,
            "random": lambda: random_thin_models(16),
            "squares": lambda: _square_models() + _asymmetric_square_models(),
            "scrambled": lambda: [scramble(K, rng) for K in thin_catalog()[:8]
                                  + random_thin_models(6) + _square_models()]}[family]()
    return [M for K in base for M in (K, mirror(K))]


@pytest.mark.parametrize("family", ["catalog", "random", "squares", "scrambled"])
def test_levels_match_the_cone(family):
    import math
    import random
    rng = random.Random(17)
    for K in _generated_models(family):
        # the slope terms of the rank formula (see cone's docstring)
        z, m = max(0, 2 * K.tau - 1), max(0, -2 * K.tau - 1)
        g = max(K.genus, 1)
        for q in (1, 2, 3, 7, 50):
            # both signs around the breakpoints z q and m q, the large regime and past it
            ps = {1, 2, z * q - 1, z * q, z * q + 1, m * q - 1, m * q, m * q + 1,
                  (2 * g - 1) * q + 1, 4 * g * q + 3, rng.randint(1, 4 * g * q + 3)}
            for p in (sign * p for p in ps if p > 0 and math.gcd(p, q) == 1 for sign in (1, -1)):
                assert surgery_dim(K, p, q).dimension == build_cone_problem(K, p, q).dimension(), \
                    (K.name, p, q)
        # the levels at +-genus, past the level word, have one class and one row each
        if K.genus:
            table = cone.level_table(K)
            assert table[K.genus] == (1, True, False, False), K.name
            assert table[-K.genus] == (1, False, True, False), K.name


_SHAPES = {"0": (1, False, False, False), "V": (1, True, False, False),
           "H": (1, False, True, False), "E": (2, True, True, True), "G": (2, True, True, False)}


def _table_model(word):
    """A staircase whose levels 1 - g..g - 1 carry the shapes named by ``word``."""
    g = (len(word) + 1) // 2
    K = build_staircase(g)
    K.levels.update({s: _SHAPES[k] for s, k in zip(range(1 - g, g), word)})
    return K


def _small_slopes():
    import math
    return [(p, q) for q in (1, 2, 3) for p in range(-13, 14) if p and math.gcd(abs(p), q) == 1]


@pytest.mark.parametrize("word", ["GEG", "GVG", "HGEGV", "V0H", "0E0", "HVH", "0GV0"])
def test_off_shape_tables_fall_back_to_the_cone(word):
    # No valid model has these level words, and surgery_dim reads the
    # decomposition, so a table injected into the model does not change
    # its answer.
    K = _table_model(word)
    clean = build_staircase(K.tau)
    for p, q in _small_slopes():
        assert surgery_dim(K, p, q) == surgery_dim(clean, p, q), (p, q)
