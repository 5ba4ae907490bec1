"""Coefficients stay ints where they are integral, Fractions otherwise, and never floats.

``quotient`` is the one division of the exact linear algebra and
``sparse_map`` the one place coefficients come in.  Every catalog model has
unit entries, so after the crosscheck battery every coefficient it kept is
an int.  Every rank is taken on integer columns, so whatever a model's
entries, its integer maps hold ints and its level table holds shapes.
"""
import random
from fractions import Fraction

import pytest

from knotsurgery import catalog, crosscheck
from knotsurgery.cone import build_cone_problem, zero_surgery_levels
from knotsurgery.knotcx import decompose, mirror
from knotsurgery.linalg import quotient, space, sparse_map
from test_properties import random_thin_models, scramble


def test_quotient_is_exact_and_an_int_when_it_divides():
    rng = random.Random(11)
    for _ in range(2000):
        a = rng.randrange(-60, 61)
        b = rng.choice((-1, 1)) * rng.randrange(1, 13)
        q = quotient(a, b)
        assert q == Fraction(a, b)
        assert (type(q) is int) == (a % b == 0), (a, b, q)
        assert type(q) in (int, Fraction)


def test_quotient_of_fractions_is_normalised():
    assert type(quotient(Fraction(3, 2), Fraction(3, 4))) is int
    assert quotient(Fraction(3, 2), Fraction(3, 4)) == 2
    assert quotient(1, Fraction(2, 3)) == Fraction(3, 2)
    assert quotient(True, 2) == Fraction(1, 2) and type(quotient(True, 1)) is int
    with pytest.raises(ZeroDivisionError):
        quotient(1, 0)


def test_sparse_map_stores_integral_values_as_ints():
    sp = space([(g, 0, 0) for g in "abcd"])
    m = sparse_map(sp, sp, [("a", "a", 2), ("b", "b", Fraction(4, 2)), ("c", "c", True),
                            ("d", "d", Fraction(1, 2))])
    values = {src: v for _, src, v in m.entries}
    assert values == {"a": 2, "b": 2, "c": 1, "d": Fraction(1, 2)}
    assert [type(values[g]) for g in "abcd"] == [int, int, int, Fraction]


def _coefficients(K):
    """Every coefficient K keeps: its maps and, once validation has built them, its integer maps."""
    for d in (K.d_plus, K.d_minus):
        yield from (v for _, _, v in d.entries)
    if "integer_maps" in K.__dict__:
        for cols in K.integer_maps:
            yield from (c for col in cols.values() for c in col.values())


def _integer_state(K) -> bool:
    """Whether K's integer maps hold only ints and its level table only (int, bool, bool, bool)."""
    return (all(type(c) is int for cols in K.integer_maps for col in cols.values()
                for c in col.values())
            and all(list(map(type, shape)) == [int, bool, bool, bool] for shape in K.levels.values()))


def test_the_crosscheck_battery_keeps_every_catalog_coefficient_an_int():
    assert all(r.ok for r in crosscheck.run_suites())
    models = list(catalog._BUILT.values())
    models += [M.__dict__["mirrored"] for M in models if "mirrored" in M.__dict__]
    assert len(models) > len(catalog.knot_names())  # mirrors were built too
    assert any(K.levels for K in models)
    for K in models:
        kinds = {type(c) for c in _coefficients(K)}
        assert kinds <= {int}, (K.name, kinds)
        assert _integer_state(K), K.name


def test_no_float_enters_a_rational_whole_space_scramble():
    rng = random.Random(5)
    kinds = set()
    for K in random_thin_models(6) + catalog.thin_catalog()[:4]:
        S = scramble(K, rng, whole_space=True)
        for M, N in ((S, K), (mirror(S), mirror(K))):
            assert decompose(M) == decompose(N)
            for p, q in ((1, 1), (-2, 3)):
                build_cone_problem(M, p, q).dimension()
            zero_surgery_levels(M)
            kinds |= {type(c) for c in _coefficients(M)}
            assert M.levels and _integer_state(M), M.name
    assert kinds == {int, Fraction}  # the rational path ran, and nothing else came out of it
