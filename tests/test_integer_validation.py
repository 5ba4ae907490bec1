"""The integer pass of ``knotcx.validate`` and ``decompose`` against the rational oracle.

Every model here is checked twice: by ``validate`` and ``decompose``, which
form the four compositions once per generator in integers, and by
``validation_oracle``, the ``Fraction`` path they replaced.  The violation
lists must be equal, in order, and a valid model's decompositions must be
equal.  The models are thin models, per-component and whole-space
scrambles of them with denominators up to 10^6, and broken variants.
Both read ``K.integer_maps``, each map times its own LCM: every accepted
spec keeps those integers within MAX_SPEC_BITS, and a separate scale on
each map changes no report and no level shape.
"""
import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from knotsurgery import catalog, cone, crosscheck, knotcx
from knotsurgery.catalog import get_knot, thin_catalog
from knotsurgery.cone import surgery_dim
from knotsurgery.knotcx import (
    MAX_SPEC_BITS,
    KnotComplex,
    ModelError,
    SquareSpec,
    StaircaseSpec,
    assemble,
    decompose,
    knot_spec_dict,
    mirror,
    parse_knot_spec,
    validate,
)
from knotsurgery.linalg import GradedSpace, SparseExactMap, space, sparse_map
from knot_helpers import half_level_squares_model
from test_level_table import models
from test_properties import _broken, _paired_squares, random_thin_models, scramble
from validation_oracle import decompose_rational, validate_rational


def assert_agrees(K: KnotComplex):
    violations = validate(K).violations
    assert violations == validate_rational(K), K.name
    if not violations:
        assert decompose(K) == decompose_rational(K), K.name


def _faulty(K: KnotComplex, how: str, grading: int, tag: str) -> KnotComplex:
    """K with one more summand that breaks it, starting at ``grading``; its ids start with ``tag``.

    "plus-square" and "minus-square" are chains x0 -> x1 -> x2 under d+ (up)
    or d- (down), so that differential does not square to zero;
    "commuting" is a square whose four arrows commute; "one-sided" is a
    -> c under d+ and c -> d under d-, so d- d+ is nonzero on a while d+ d-
    is zero there; "two-step" is a d+ arrow that jumps two gradings.  The
    genus grows to cover the new generators.
    """
    plus, minus = [], []  # the new arrows, as (target, source)
    if how in ("plus-square", "minus-square"):
        step, arrows = (1, plus) if how == "plus-square" else (-1, minus)
        added = [(f"x{i}", grading + i * step, i % 2) for i in range(3)]
        arrows += [("x1", "x0"), ("x2", "x1")]
    elif how == "commuting":
        added = [("a", grading, 0), ("b", grading - 1, 1), ("c", grading + 1, 1), ("d", grading, 0)]
        plus += [("c", "a"), ("d", "b")]
        minus += [("b", "a"), ("d", "c")]
    elif how == "one-sided":
        added = [("a", grading, 0), ("c", grading + 1, 1), ("d", grading, 0)]
        plus.append(("c", "a"))
        minus.append(("d", "c"))
    else:  # two-step
        added = [("t0", grading, 0), ("t1", grading + 2, 1)]
        plus.append(("t1", "t0"))
    gens = [(g.gid, g.alex, g.z2) for g in K.space.generators]
    gens += [(tag + gid, 2 * a, z) for gid, a, z in added]
    d_plus, d_minus = (list(d.entries) + [(tag + t, tag + s, 1) for t, s in new]
                       for d, new in ((K.d_plus, plus), (K.d_minus, minus)))
    genus = max([K.genus] + [abs(a) for _, a, _ in added])
    sp = space(gens)
    return KnotComplex(sp, sparse_map(sp, sp, d_plus), sparse_map(sp, sp, d_minus),
                       genus=genus, tau=K.tau)


FAULTS = ("plus-square", "minus-square", "commuting", "one-sided", "two-step")
OLD_FAULTS = ("free", "plus-pair", "minus-pair", "tau")  # test_properties._broken, one at most


@pytest.mark.parametrize("K", random_thin_models(50) + thin_catalog(), ids=lambda K: K.name)
def test_thin_models_agree_with_the_oracle(K):
    rng = random.Random(K.name)
    for M in (K, mirror(K), scramble(K, rng, max_denominator=10 ** 6),
              scramble(K, rng, whole_space=True, max_denominator=10 ** 6)):
        assert_agrees(M)


def test_half_integer_gradings_agree_with_the_oracle():
    assert_agrees(half_level_squares_model())


@settings(max_examples=80, deadline=None)
@example(1, [(1, 1)], None, [], 0, "whole", 10 ** 6, 1)
@example(-2, [(0, -1)], None, ["plus-square", "two-step"], -1, "whole", 10 ** 6, 2)
@example(0, [(2, 1)], None, ["minus-square", "one-sided"], 1, "component", 10 ** 6, 3)
@example(2, [], None, ["commuting"], 0, "whole", 10 ** 6, 4)
@example(-1, [(1, -1)], "tau", ["two-step"], -1, "component", 10 ** 6, 5)
@example(1, [(0, 1)], "free", [], 0, "whole", 10 ** 6, 6)
@given(st.integers(-3, 3),
       st.lists(st.tuples(st.integers(0, 2), st.sampled_from((-1, 1))), max_size=3),
       st.sampled_from((None,) + OLD_FAULTS), st.lists(st.sampled_from(FAULTS), max_size=2, unique=True),
       st.integers(-3, 3), st.sampled_from(("none", "component", "whole")),
       st.sampled_from((1, 3, 10 ** 6)), st.integers(0, 2 ** 32))
def test_generated_models_agree_with_the_oracle(tau, picked, old, faults, grading, basis,
                                                max_denominator, seed):
    """Violation lists, in order, and decompositions equal the rational path's.

    Up to three faults, each in its own summand, are put together, so that
    the order of the violations is tested too.
    """
    K = assemble(StaircaseSpec(tau), _paired_squares(picked))
    if old is not None:
        K = _broken(K, old, grading)
    for i, how in enumerate(faults):
        K = _faulty(K, how, grading, f"f{i}")
    if basis != "none":
        K = scramble(K, random.Random(seed), whole_space=basis == "whole",
                     max_denominator=max_denominator)
    assert_agrees(K)
    assert validate(K).ok == (old is None and not faults)


def _entry_types(d) -> list:
    return [(t, s, v, type(v)) for t, s, v in d.entries]


def _counted_pass(monkeypatch, K):
    """Records every composition the pass forms as (outer map, inner map, generator id).

    The maps are "+" and "-", read off the columns of ``K.integer_maps``.
    """
    formed = []
    P, M = K.integer_maps
    apply = knotcx.apply

    def spy_apply(cols, vec):
        inner = next((label, K.space.ids[i]) for label, own in (("+", P), ("-", M))
                     for i, col in own.items() if col is vec)
        formed.append(("+" if cols is P else "-",) + inner)
        return apply(cols, vec)

    monkeypatch.setattr(knotcx, "apply", spy_apply)
    return formed


@pytest.mark.parametrize("rational", [False, True], ids=["integral", "rational"])
def test_validate_forms_each_composition_once_and_decompose_none(monkeypatch, rational):
    K = assemble(StaircaseSpec(2), _paired_squares([(0, 1), (1, -1)]))
    if rational:
        K = scramble(K, random.Random(5), whole_space=True, max_denominator=10 ** 6)
    formed = _counted_pass(monkeypatch, K)
    assert K.report.ok
    want = Counter((outer, inner, gid) for outer in "+-" for inner in "+-" for gid in K.space.ids)
    assert Counter(formed) == want
    formed.clear()
    assert decompose(K).squares == {(0, 1): 1, (1, -1): 1, (-1, -1): 1}
    assert formed == []


def test_maps_of_integral_fractions_validate_like_int_maps():
    K = assemble(StaircaseSpec(1), [SquareSpec(0, 1), SquareSpec(0, 1), SquareSpec(0, -1),
                                    SquareSpec(1, 1), SquareSpec(-1, 1)])
    sp = K.space

    def fractions(d):
        return SparseExactMap(sp, sp, tuple((t, s, Fraction(v)) for t, s, v in d.entries))

    F = K._replace(d_plus=fractions(K.d_plus), d_minus=fractions(K.d_minus))
    assert all(type(v) is Fraction for d in (F.d_plus, F.d_minus) for _, _, v in d.entries)
    assert validate(F) == validate(K) and validate(F).ok
    assert F.integer_maps == K.integer_maps
    assert all(type(c) is int for cols in F.integer_maps for col in cols.values()
               for c in col.values())
    assert decompose(F) == decompose(K) == (1, {(0, 1): 2, (0, -1): 1, (1, 1): 1, (-1, 1): 1})
    assert surgery_dim(F, 1, 1).dimension == surgery_dim(K, 1, 1).dimension == 11


def test_scaling_leaves_the_maps_untouched():
    K = scramble(get_knot("figure-eight"), random.Random(3), whole_space=True,
                 max_denominator=10 ** 6)
    before = [_entry_types(d) for d in (K.d_plus, K.d_minus)]
    columns = [{i: dict(col) for i, col in d.columns.items()} for d in (K.d_plus, K.d_minus)]
    assert any(type(v) is Fraction for d in (K.d_plus, K.d_minus) for _, _, v in d.entries)
    assert validate(K).ok and decompose(K) == (0, {(0, -1): 1})
    assert [_entry_types(d) for d in (K.d_plus, K.d_minus)] == before
    assert [d.columns for d in (K.d_plus, K.d_minus)] == columns
    for d in (K.d_plus, K.d_minus):
        assert all(type(v) is (int if v.denominator == 1 else Fraction) for _, _, v in d.entries)
    # integral maps keep their own entries, by position
    T = get_knot("t2_7")
    at = {gid: i for i, gid in enumerate(T.space.ids)}
    for d, cols in zip((T.d_plus, T.d_minus), T.integer_maps):
        scaled = sorted((j, i, c) for i, col in cols.items() for j, c in col.items())
        assert scaled == sorted((at[t], at[s], v) for t, s, v in d.entries)


def _assert_columns_as_built(models):
    """Each model's map columns equal a fresh build from their entries, and so do its integer maps."""
    for K in models:
        for d in (K.d_plus, K.d_minus):
            assert d.columns == SparseExactMap(d.source, d.target, d.entries).columns, K.name
        assert K.integer_maps == K._replace().integer_maps, K.name


def test_an_integral_model_ranks_its_own_columns():
    K = get_knot("t2_7")
    assert K.integer_maps[0] is K.d_plus.columns and K.integer_maps[1] is K.d_minus.columns
    R = scramble(K, random.Random(3), whole_space=True, max_denominator=10 ** 6)
    assert R.integer_maps[0] is not R.d_plus.columns


def test_maps_over_another_space_are_refused():
    """Positions are the model's: its generators in another order are another space."""
    K = assemble(StaircaseSpec(1), [SquareSpec(0, 1), SquareSpec(1, -1), SquareSpec(-1, -1)])
    gens = list(K.space.generators)
    random.Random(1).shuffle(gens)
    other = GradedSpace(tuple(gens))
    for keys in (("d_minus",), ("d_plus", "d_minus")):
        R = K._replace(**{key: SparseExactMap(other, other, getattr(K, key).entries)
                          for key in keys})
        assert validate(R).violations == ["d+ and d- must map the model's space to itself"]
        with pytest.raises(ModelError, match="model's space"):
            surgery_dim(R, 1, 1)


def test_no_battery_changes_a_column():
    crosscheck.run_suites()
    built = list(catalog._BUILT.values())
    _assert_columns_as_built(built + [K.__dict__["mirrored"] for K in built
                                      if "mirrored" in K.__dict__])


@pytest.mark.parametrize("seed", range(3))
def test_no_level_or_cone_changes_a_column_of_a_rational_scramble(seed):
    K = scramble(assemble(StaircaseSpec(1), _paired_squares([(0, 1), (1, -1)])),
                 random.Random(seed), whole_space=True, max_denominator=10 ** 6)
    for M in (K, mirror(K)):
        for s in range(-M.genus - 1, M.genus + 2):
            cone.pi_maps(M, s)
        for p, q in ((1, 1), (-1, 1), (3, 2), (-5, 3)):
            crosscheck.pathway_values(M, p, q)
    _assert_columns_as_built([K, mirror(K)])


def _bits(K: KnotComplex) -> int:
    """The most bits of any integer in ``K.integer_maps``."""
    return max((abs(c).bit_length() for cols in K.integer_maps for col in cols.values()
                for c in col.values()), default=0)


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3),
       st.lists(st.tuples(st.integers(0, 2), st.sampled_from((-1, 1))), max_size=3),
       st.booleans(), st.sampled_from((3, 1000, 10 ** 6)), st.integers(0, 2 ** 32))
def test_accepted_specs_keep_their_integer_maps_within_the_bit_limit(tau, picked, whole_space,
                                                                     max_denominator, seed):
    """A scramble either comes back from its spec exactly, every integer the library
    ranks within MAX_SPEC_BITS, or is refused naming that limit."""
    K = scramble(assemble(StaircaseSpec(tau), _paired_squares(picked)), random.Random(seed),
                 whole_space=whole_space, max_denominator=max_denominator)
    for M in (K, mirror(K)):
        try:
            back = parse_knot_spec(json.loads(json.dumps(knot_spec_dict(M))))
        except ModelError as exc:
            assert "MAX_SPEC_BITS" in str(exc)
            continue
        assert (back.d_plus, back.d_minus) == (M.d_plus, M.d_minus)
        assert _bits(back) <= MAX_SPEC_BITS


def _scaled(K: KnotComplex, a: int, b: int) -> KnotComplex:
    """K with d+ times a and d- times b."""
    sp = K.space
    return K._replace(**{key: sparse_map(sp, sp, [(t, s, v * c) for t, s, v in d.entries])
                         for key, d, c in (("d_plus", K.d_plus, a), ("d_minus", K.d_minus, b))})


@settings(max_examples=60, deadline=None)
@given(models(), st.tuples(st.integers(-50, 50), st.integers(-50, 50)).filter(
    lambda ab: ab[0] != ab[1] and gcd(*ab) == 1 and 0 not in ab))
def test_a_scale_on_each_map_changes_no_report_and_no_level(K, scales):
    """d+ times a and d- times b, coprime and different, as two scales of the integer maps are."""
    S = _scaled(K, *scales)
    assert validate(S) == validate(K)
    assert decompose(S) == decompose(K)
    for s in range(-K.genus - 1, K.genus + 2):
        assert cone.pi_maps(S, s) == cone.pi_maps(K, s), (K.name, scales, s)
